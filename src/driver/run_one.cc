#include "driver/run_one.hh"

#include <atomic>
#include <filesystem>
#include <fstream>

#include "sim/logging.hh"

namespace ts
{
namespace driver
{

namespace
{

/**
 * The bench-JSON wrapper for a one-shot run, written to
 * opt.benchJsonDir as `<seq>_<tag>.json`.  The process-wide sequence
 * number keeps files from a bench that runs many points in one
 * process distinct and in execution order (sweeps use deterministic
 * point tags instead — see sweep.cc).
 */
void
emitBenchJson(const RunOptions& opt, const std::string& tag,
              const std::string& name, const DeltaConfig& cfg,
              const RunResult& r)
{
    if (opt.benchJsonDir.empty())
        return;
    static std::atomic<int> seq{0};
    const std::string path =
        opt.benchJsonDir + "/" +
        std::to_string(seq.fetch_add(1, std::memory_order_relaxed)) +
        "_" + tag + ".json";
    std::error_code ec;
    std::filesystem::create_directories(opt.benchJsonDir, ec);
    std::ofstream os(path);
    os << "{\n  \"workload\": \"" << name << "\",\n"
       << "  \"policy\": \"" << schedPolicyName(cfg.policy) << "\",\n"
       << "  \"steal\": \"" << stealPolicyName(cfg.steal) << "\",\n"
       << "  \"lanes\": " << cfg.lanes << ",\n"
       << "  \"correct\": " << (r.correct ? "true" : "false") << ",\n"
       << "  \"stats\": ";
    r.stats.dumpJson(os);
    os << "}\n";
    os.close();
    if (!os)
        fatal("runOne: cannot write bench JSON '", path, "'");
}

} // namespace

RunResult
runOne(const RunOptions& opt, const RunSpec& spec)
{
    Delta delta(opt.applyTo(spec.cfg));
    TaskGraph graph;
    spec.build(delta, graph);

    RunResult r;
    r.stats = delta.run(graph);
    r.cycles = r.stats.get("delta.cycles");
    r.correct = !spec.check || spec.check(delta);
    const std::string tag = spec.tag.empty() ? "run" : spec.tag;
    emitBenchJson(opt, tag, spec.name.empty() ? tag : spec.name,
                  spec.cfg, r);
    return r;
}

RunResult
runOne(const RunOptions& opt, Workload& wl, DeltaConfig cfg)
{
    RunSpec spec;
    spec.cfg = cfg;
    spec.build = [&wl](Delta& d, TaskGraph& g) { wl.build(d, g); };
    spec.check = [&wl](Delta& d) { return wl.check(d.image()); };
    spec.tag = wl.name() + "_" +
               std::string(schedPolicyName(cfg.policy)) + "_l" +
               std::to_string(cfg.lanes);
    spec.name = wl.name();
    return runOne(opt, spec);
}

RunResult
runOne(const RunOptions& opt, Wk w, DeltaConfig cfg)
{
    const auto wl = makeWorkload(w, opt.suiteParams());
    return runOne(opt, *wl, cfg);
}

} // namespace driver
} // namespace ts
