#include "driver/grid.hh"

#include <cstdlib>
#include <fstream>

#include "sim/logging.hh"

namespace ts
{
namespace driver
{

std::vector<std::string>
splitList(const std::string& list)
{
    std::vector<std::string> out;
    std::string cur;
    const auto flush = [&] {
        const auto b = cur.find_first_not_of(" \t");
        const auto e = cur.find_last_not_of(" \t");
        if (b != std::string::npos)
            out.push_back(cur.substr(b, e - b + 1));
        cur.clear();
    };
    for (const char c : list) {
        if (c == ',')
            flush();
        else
            cur += c;
    }
    flush();
    return out;
}

std::vector<std::uint64_t>
parseSeedList(const std::string& list)
{
    std::vector<std::uint64_t> out;
    for (const std::string& s : splitList(list)) {
        char* end = nullptr;
        const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
        if (end == s.c_str() || *end != '\0')
            fatal("--seeds entries must be non-negative integers, "
                  "got '", s, "'");
        out.push_back(v);
    }
    if (out.empty())
        fatal("--seeds needs at least one entry");
    return out;
}

std::vector<double>
parseScaleList(const std::string& list)
{
    std::vector<double> out;
    for (const std::string& s : splitList(list)) {
        char* end = nullptr;
        const double v = std::strtod(s.c_str(), &end);
        if (end == s.c_str() || *end != '\0' || !(v > 0))
            fatal("--scales entries must be positive numbers, got '",
                  s, "'");
        out.push_back(v);
    }
    if (out.empty())
        fatal("--scales needs at least one entry");
    return out;
}

std::uint32_t
parseLanes(const std::string& s)
{
    char* end = nullptr;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || v < 1 || v > 62)
        fatal("--lanes must be in 1..62, got '", s, "'");
    return static_cast<std::uint32_t>(v);
}

std::uint64_t
parseCapBytes(const std::string& s)
{
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
    std::uint64_t mult = 1;
    if (end != s.c_str() && *end != '\0' &&
        *(end + 1) == '\0') {
        switch (*end) {
          case 'K': case 'k': mult = 1ull << 10; break;
          case 'M': case 'm': mult = 1ull << 20; break;
          case 'G': case 'g': mult = 1ull << 30; break;
          default: mult = 0; break;
        }
    }
    if (end == s.c_str() || (*end != '\0' && mult == 1) || mult == 0)
        fatal("--cache-cap must be BYTES[K|M|G], got '", s, "'");
    return v * mult;
}

namespace
{

std::uint32_t
parsePositive(const std::string& value, const char* key)
{
    char* end = nullptr;
    const long v = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || v < 1)
        fatal("grid key '", key, "' must be a positive integer, "
              "got '", value, "'");
    return static_cast<std::uint32_t>(v);
}

/** One entry of the grid-key vocabulary: the key, the values it
 *  accepts (printed by `delta-sweep --list-grid-keys`), a one-line
 *  meaning, and the setter. */
struct GridKeyDef
{
    const char* key;
    const char* values;
    const char* help;
    void (*apply)(const std::string& value, RunOptions& opt,
                  GridSettings& grid);
};

const GridKeyDef kGridKeys[] = {
    {"workloads", "comma list of workload names, or 'all'",
     "workload axis (default: the whole suite)",
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.workloads = workloadsFromList(v);
     }},
    {"configs",
     "comma list of: static, dyn, work, work-steal, pipe, delta, "
     "spatial",
     "accelerator-config axis (default: static,delta)",
     [](const std::string& v, RunOptions&, GridSettings& g) {
         g.configs = v;
         (void)sweepConfigsFromList(v); // validate now
     }},
    {"seeds", "comma list of non-negative integers",
     "RNG-seed axis",
     [](const std::string& v, RunOptions&, GridSettings& g) {
         g.seeds = parseSeedList(v);
     }},
    {"scales", "comma list of positive numbers",
     "problem-size axis",
     [](const std::string& v, RunOptions&, GridSettings& g) {
         g.scales = parseScaleList(v);
     }},
    {"lanes", "integer in 1..62", "accelerator lane count",
     [](const std::string& v, RunOptions&, GridSettings& g) {
         g.lanes = parseLanes(v);
     }},
    {"baseline", "a name from the configs list",
     "config paired speedups are measured against",
     [](const std::string& v, RunOptions&, GridSettings& g) {
         g.baseline = v;
     }},
    {"steal", "none | steal-one | steal-half",
     "NoC work stealing for configs whose preset leaves it off "
     "(cache-key relevant)",
     [](const std::string& v, RunOptions& o, GridSettings&) {
         if (!stealPolicyFromName(v, o.steal))
             fatal("grid key 'steal' must be none, steal-one, or "
                   "steal-half, got '", v, "'");
     }},
    {"sched", "static | dyncount | workaware | spatial",
     "scheduling-policy override for every config "
     "(cache-key relevant)",
     [](const std::string& v, RunOptions& o, GridSettings&) {
         if (!schedPolicyFromName(v, o.sched))
             fatal("grid key 'sched' must be static, dyncount, "
                   "workaware, or spatial, got '", v, "'");
         o.schedSet = true;
     }},
    {"jobs", "positive integer", "host worker threads",
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.jobs = parsePositive(v, "jobs");
     }},
    {"out", "path", "aggregate JSON report destination",
     [](const std::string& v, RunOptions&, GridSettings& g) {
         g.out = v;
     }},
    {"bench-json", "directory path",
     "per-run bench-JSON wrapper dumps",
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.benchJsonDir = v;
     }},
    {"trace", "path", "per-point Perfetto traces",
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.tracePath = v;
     }},
    {"no-fast-forward", "0 | 1",
     "naive per-cycle ticking (bit-identical reference mode)",
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.noFastForward = v != "0";
     }},
    {"cache", "directory path", "content-addressed run cache root",
     [](const std::string& v, RunOptions&, GridSettings& g) {
         g.cacheDir = v;
     }},
    {"cache-cap", "BYTES[K|M|G]", "run-cache size budget",
     [](const std::string& v, RunOptions&, GridSettings& g) {
         g.cacheCapBytes = parseCapBytes(v);
     }},
    {"timeline", "non-negative integer (cycles; 0 = off)",
     "delta.timeline.* sampling interval",
     [](const std::string& v, RunOptions& o, GridSettings&) {
         char* end = nullptr;
         const std::uint64_t n =
             std::strtoull(v.c_str(), &end, 10);
         if (end == v.c_str() || *end != '\0')
             fatal("grid key 'timeline' must be a non-negative "
                   "integer, got '", v, "'");
         o.timelineInterval = n;
     }},
    {"timeline-series", "subset of lanes,ready,noc,dram",
     "timeline probe groups (default: all)",
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.timelineSeries = v;
     }},
    {"host-profile", "0 | 1",
     "host wall-time attribution (sim.host.profile.*)",
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.hostProfile = v != "0";
     }},
};

} // namespace

void
applyGridKey(const std::string& key, const std::string& value,
             RunOptions& opt, GridSettings& grid)
{
    for (const GridKeyDef& def : kGridKeys) {
        if (key == def.key) {
            def.apply(value, opt, grid);
            return;
        }
    }
    std::string valid;
    for (const GridKeyDef& def : kGridKeys)
        valid += (valid.empty() ? "" : ", ") + std::string(def.key);
    fatal("unknown grid key '", key, "'; valid keys: ", valid);
}

void
printGridKeys(std::ostream& os)
{
    os << "grid keys (`key = value` in grid files, `key=value` with "
          "--set):\n";
    for (const GridKeyDef& def : kGridKeys) {
        os << "  " << def.key << " = <" << def.values << ">\n"
           << "      " << def.help << "\n";
    }
}

void
loadGridFile(const std::string& path, RunOptions& opt,
             GridSettings& grid)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open grid file '", path, "'");
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const auto b = line.find_first_not_of(" \t\r");
        if (b == std::string::npos)
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            fatal("grid file ", path, ":", lineno,
                  ": expected `key = value`, got '", line, "'");
        const auto trim = [](std::string s) {
            const auto tb = s.find_first_not_of(" \t\r");
            const auto te = s.find_last_not_of(" \t\r");
            return tb == std::string::npos
                       ? std::string()
                       : s.substr(tb, te - tb + 1);
        };
        applyGridKey(trim(line.substr(0, eq)),
                     trim(line.substr(eq + 1)), opt, grid);
    }
}

SweepSpec
buildSweepSpec(const RunOptions& opt, const GridSettings& grid)
{
    SweepSpec spec;
    spec.workloads = opt.workloads.empty() ? workloadsFromList("")
                                           : opt.workloads;
    spec.configs = sweepConfigsFromList(grid.configs, grid.lanes);
    spec.seeds = grid.seeds.empty()
                     ? std::vector<std::uint64_t>{opt.seed}
                     : grid.seeds;
    spec.scales =
        grid.scales.empty() ? std::vector<double>{opt.scale}
                            : grid.scales;
    spec.baseline = grid.baseline;
    spec.jobs = opt.jobs;
    spec.benchJsonDir = opt.benchJsonDir;
    spec.tracePath = opt.tracePath;
    spec.noFastForward = opt.noFastForward;
    spec.timelineInterval = opt.timelineInterval;
    spec.timelineSeries = opt.timelineSeries;
    spec.hostProfile = opt.hostProfile;
    spec.steal = opt.steal;
    spec.sched = opt.sched;
    spec.schedSet = opt.schedSet;
    spec.cacheDir = grid.cacheDir;
    spec.cacheCapBytes = grid.cacheCapBytes;
    return spec;
}

} // namespace driver
} // namespace ts
