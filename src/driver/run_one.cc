#include "driver/run_one.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace ts
{
namespace driver
{

std::string
formatScale(double scale)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", scale);
    return buf;
}

std::string
runTag(const std::string& workload, const std::string& config,
       std::uint32_t lanes, std::uint64_t seed, double scale)
{
    return workload + "_" + config + "_l" + std::to_string(lanes) +
           "_s" + std::to_string(seed) + "_x" + formatScale(scale);
}

std::string
benchWrapperJson(const std::string& workload, const std::string& config,
                 std::uint32_t lanes, std::uint64_t seed, double scale,
                 bool correct, double cycles, const StatSet& stats)
{
    std::ostringstream os;
    os << "{\n  \"workload\": \"" << workload
       << "\",\n  \"config\": \"" << config
       << "\",\n  \"lanes\": " << lanes << ",\n  \"seed\": " << seed
       << ",\n  \"scale\": " << formatScale(scale)
       << ",\n  \"correct\": " << (correct ? "true" : "false")
       << ",\n  \"cycles\": " << jsonNumber(cycles)
       << ",\n  \"stats\": ";
    stats.dumpJson(os);
    os << "}\n";
    return os.str();
}

std::string
writeBenchJson(const std::string& dir, const std::string& tag,
               const std::string& payload)
{
    const std::string path = dir + "/" + tag + ".json";
    std::ofstream os(path, std::ios::binary);
    os << payload;
    os.close();
    return os ? std::string()
              : "cannot write bench JSON '" + path + "'";
}

void
makeBenchJsonDir(const std::string& dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec || !std::filesystem::is_directory(dir))
        fatal("cannot create bench-json directory '", dir, "'",
              ec ? ": " + ec.message() : std::string());
}

RunResult
runOne(const RunOptions& opt, const RunSpec& spec)
{
    Delta delta(opt.overrides.applyTo(spec.cfg));
    TaskGraph graph;
    spec.build(delta, graph);

    RunResult r;
    r.stats = delta.run(graph);
    r.cycles = r.stats.get("delta.cycles");
    r.correct = !spec.check || spec.check(delta);

    const std::string& dir = opt.overrides.benchJsonDir;
    if (!dir.empty()) {
        const DeltaConfig& cfg = delta.config();
        const std::string config = spec.config.empty()
                                       ? schedPolicyName(cfg.policy)
                                       : spec.config;
        makeBenchJsonDir(dir);
        const std::string error = writeBenchJson(
            dir,
            runTag(spec.workload, config, cfg.lanes, opt.seed,
                   opt.scale),
            benchWrapperJson(spec.workload, config, cfg.lanes,
                             opt.seed, opt.scale, r.correct, r.cycles,
                             r.stats));
        if (!error.empty())
            fatal("runOne: ", error);
    }
    return r;
}

RunResult
runOne(const RunOptions& opt, Workload& wl, const ConfigVariant& config)
{
    RunSpec spec;
    spec.cfg = config.cfg;
    spec.build = [&wl](Delta& d, TaskGraph& g) { wl.build(d, g); };
    spec.check = [&wl](Delta& d) { return wl.check(d.image()); };
    spec.workload = wl.name();
    spec.config = config.name;
    return runOne(opt, spec);
}

} // namespace driver
} // namespace ts
