#include "driver/options.hh"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "driver/sweep.hh"
#include "sim/logging.hh"

namespace ts
{
namespace driver
{

namespace
{

/** Insert @p tag before the extension of @p path ("a.json" + "3" ->
 *  "a.3.json"; extensionless paths get the tag appended). */
std::string
suffixPath(const std::string& path, const std::string& tag)
{
    std::string out = path;
    const std::size_t dot = out.rfind('.');
    const std::string insert = "." + tag;
    if (dot == std::string::npos || dot == 0)
        out += insert;
    else
        out.insert(dot, insert);
    return out;
}

std::string
trim(const std::string& s)
{
    const auto b = s.find_first_not_of(" \t\r");
    const auto e = s.find_last_not_of(" \t\r");
    return b == std::string::npos ? std::string()
                                  : s.substr(b, e - b + 1);
}

// Value parsers: each names the option it parses in its error.

double
parsePositive(const std::string& s, const char* key)
{
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !(v > 0))
        fatal("option '", key, "' must be a positive number, got '",
              s, "'");
    return v;
}

std::uint64_t
parseCount(const std::string& s, const char* key)
{
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || s[0] == '-')
        fatal("option '", key,
              "' must be a non-negative integer, got '", s, "'");
    return v;
}

long
parseRange(const std::string& s, const char* key, long lo, long hi)
{
    char* end = nullptr;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || v < lo || v > hi)
        fatal("option '", key, "' must be an integer in ", lo, "..",
              hi, ", got '", s, "'");
    return v;
}

bool
parseSwitch(const std::string& s, const char* key)
{
    if (s != "0" && s != "1")
        fatal("option '", key, "' must be 0 or 1, got '", s, "'");
    return s == "1";
}

std::uint64_t
parseCapBytes(const std::string& s)
{
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
    std::uint64_t mult = 1;
    if (end != s.c_str() && *end != '\0' && *(end + 1) == '\0') {
        switch (*end) {
          case 'K': case 'k': mult = 1ull << 10; break;
          case 'M': case 'm': mult = 1ull << 20; break;
          case 'G': case 'g': mult = 1ull << 30; break;
          default: mult = 0; break;
        }
    }
    if (end == s.c_str() || (*end != '\0' && mult == 1) || mult == 0)
        fatal("option 'cache-cap' must be BYTES[K|M|G], got '", s,
              "'");
    return v * mult;
}

template <typename T, typename Parse>
std::vector<T>
parseList(const std::string& list, const char* key, Parse parse)
{
    std::vector<T> out;
    for (const std::string& s : splitList(list))
        out.push_back(parse(s, key));
    if (out.empty())
        fatal("option '", key, "' needs at least one entry");
    return out;
}

/** One option: the key (flag `--key`, grid key `key`), the values it
 *  accepts, a one-line meaning, who accepts it, and the setter.  A
 *  switch takes no value as a flag (`--key` means 1). */
struct OptionDef
{
    const char* key;
    const char* values;
    const char* help;
    Scope scope;
    bool isSwitch;
    void (*set)(const std::string& value, RunOptions& opt,
                GridSettings& grid);
};

const OptionDef kOptions[] = {
    {"workloads", "comma list of workload names, or 'all'",
     "workload axis (default: the binary's own list)", Scope::Run,
     false,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.workloads = workloadsFromList(v);
     }},
    {"scale", "positive number", "problem-size multiplier",
     Scope::Run, false,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.scale = parsePositive(v, "scale");
     }},
    {"seed", "non-negative integer", "base RNG seed", Scope::Run,
     false,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.seed = parseCount(v, "seed");
     }},
    {"trace", "path",
     "Perfetto trace output (a sweep writes <base>.<tag>.<ext> per "
     "point)",
     Scope::Run, false,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.overrides.tracePath = v;
     }},
    {"stats-json", "path",
     "flat StatSet dump of the one run (multi-point binaries reject "
     "it: use bench-json)",
     Scope::Run, false,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.overrides.statsJsonPath = v;
     }},
    {"bench-json", "directory path",
     "per-run wrapper dumps <dir>/<tag>.json (created if missing)",
     Scope::Run, false,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.overrides.benchJsonDir = v;
     }},
    {"log", "0 | 1 | 2", "stderr verbosity: silent, warnings, +info",
     Scope::Run, false,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.logLevel = static_cast<int>(parseRange(v, "log", 0, 2));
     }},
    {"no-fast-forward", "0 | 1",
     "naive per-cycle ticking (bit-identical reference mode)",
     Scope::Run, true,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.overrides.noFastForward = parseSwitch(v, "no-fast-forward");
     }},
    {"steal", "none | steal-one | steal-half",
     "NoC work stealing for configs whose preset leaves it off "
     "(changes results)",
     Scope::Run, false,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         if (!stealPolicyFromName(v, o.overrides.steal))
             fatal("option 'steal' must be none, steal-one, or "
                   "steal-half, got '", v, "'");
     }},
    {"sched", "static | dyncount | workaware | spatial",
     "scheduling-policy override for every config (changes results)",
     Scope::Run, false,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         SchedPolicy p = SchedPolicy::WorkAware;
         if (!schedPolicyFromName(v, p))
             fatal("option 'sched' must be static, dyncount, "
                   "workaware, or spatial, got '", v, "'");
         o.overrides.sched = p;
     }},
    {"progress", "auto | always | never",
     "sweep progress lines on stderr (auto: only on a TTY)",
     Scope::Run, false,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         if (v != "auto" && v != "always" && v != "never")
             fatal("option 'progress' must be auto, always, or never, "
                   "got '", v, "'");
         o.progress = v;
     }},
    {"timeline", "non-negative integer (cycles; 0 = off)",
     "delta.timeline.* sampling interval", Scope::Run, false,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.overrides.timelineInterval = parseCount(v, "timeline");
     }},
    {"timeline-series", "subset of lanes,ready,noc,dram",
     "timeline probe groups (default: all)", Scope::Run, false,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.overrides.timelineSeries = v;
     }},
    {"host-profile", "0 | 1",
     "host wall-time attribution (sim.host.profile.*)", Scope::Run,
     true,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.overrides.hostProfile = parseSwitch(v, "host-profile");
     }},
    {"flight-recorder", "non-negative integer (records; 0 = off)",
     "ring of the last N sleep/wake/commit/event records, dumped on "
     "deadlock",
     Scope::Run, false,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.overrides.flightRecorder = static_cast<std::size_t>(
             parseCount(v, "flight-recorder"));
     }},
    {"jobs", "positive integer",
     "host worker threads; also -j N (default: hardware concurrency)",
     Scope::Run, false,
     [](const std::string& v, RunOptions& o, GridSettings&) {
         o.jobs = static_cast<unsigned>(
             parseRange(v, "jobs", 1, 1 << 16));
     }},
    {"configs",
     "comma list of: static, dyn, work, work-steal, pipe, delta, "
     "spatial",
     "accelerator-config axis (default: static,delta)", Scope::Sweep,
     false,
     [](const std::string& v, RunOptions&, GridSettings& g) {
         (void)sweepConfigsFromList(v); // validate now
         g.configs = v;
     }},
    {"seeds", "comma list of non-negative integers",
     "RNG-seed axis (default: seed)", Scope::Sweep, false,
     [](const std::string& v, RunOptions&, GridSettings& g) {
         g.seeds = parseList<std::uint64_t>(v, "seeds", parseCount);
     }},
    {"scales", "comma list of positive numbers",
     "problem-size axis (default: scale)", Scope::Sweep, false,
     [](const std::string& v, RunOptions&, GridSettings& g) {
         g.scales = parseList<double>(v, "scales", parsePositive);
     }},
    {"lanes", "integer in 1..62", "lane count of every config",
     Scope::Sweep, false,
     [](const std::string& v, RunOptions&, GridSettings& g) {
         g.lanes =
             static_cast<std::uint32_t>(parseRange(v, "lanes", 1, 62));
     }},
    {"baseline", "a name from the configs list",
     "config paired speedups are measured against (default: the "
     "first)",
     Scope::Sweep, false,
     [](const std::string& v, RunOptions&, GridSettings& g) {
         g.baseline = v;
     }},
    {"out", "path", "aggregate JSON report (default: stdout)",
     Scope::Sweep, false,
     [](const std::string& v, RunOptions&, GridSettings& g) {
         g.out = v;
     }},
    {"cache", "directory path",
     "content-addressed run cache: consult before running, publish "
     "after",
     Scope::Sweep, false,
     [](const std::string& v, RunOptions&, GridSettings& g) {
         g.cacheDir = v;
     }},
    {"cache-cap", "BYTES[K|M|G]", "run-cache size budget",
     Scope::Sweep, false,
     [](const std::string& v, RunOptions&, GridSettings& g) {
         g.cacheCapBytes = parseCapBytes(v);
     }},
};

const OptionDef*
findOption(const std::string& key, Scope scope)
{
    for (const OptionDef& def : kOptions) {
        if (key == def.key &&
            (def.scope == Scope::Run || scope == Scope::Sweep))
            return &def;
    }
    return nullptr;
}

} // namespace

DeltaConfig
RunOverrides::applyTo(DeltaConfig cfg, const std::string& traceTag) const
{
    if (!cfg.trace.enabled && !tracePath.empty())
        cfg.trace = traceTag.empty()
                        ? nextTraceConfig(tracePath)
                        : traceConfigTagged(tracePath, traceTag);
    if (!statsJsonPath.empty())
        cfg.statsJsonPath = statsJsonPath;
    if (noFastForward)
        cfg.noFastForward = true;
    if (cfg.steal == StealPolicy::None)
        cfg.steal = steal;
    if (sched)
        cfg.policy = *sched;
    if (timelineInterval > 0) {
        cfg.timelineInterval = timelineInterval;
        cfg.timelineSeries = timelineSeries;
    }
    if (hostProfile)
        cfg.hostProfile = true;
    if (flightRecorder > 0)
        cfg.flightRecorder = flightRecorder;
    return cfg;
}

SuiteParams
RunOptions::suiteParams() const
{
    SuiteParams sp;
    sp.scale = scale;
    sp.seed = seed;
    return sp;
}

bool
RunOptions::progressEnabled() const
{
    if (progress == "always")
        return true;
    if (progress == "never")
        return false;
    return ::isatty(fileno(stderr)) != 0;
}

std::string
optionsHelp(Scope scope)
{
    std::string out = "options (--key VALUE or --key=VALUE):\n";
    for (const OptionDef& def : kOptions) {
        if (def.scope == Scope::Sweep && scope == Scope::Run)
            continue;
        std::string flag = std::string("  --") + def.key;
        if (!def.isSwitch)
            flag += " <" + std::string(def.values) + ">";
        out += flag + "\n      " + def.help + "\n";
    }
    return out;
}

void
parseArgs(int argc, char** argv, Scope scope, RunOptions& opt,
          GridSettings& grid, const ExtraArgs& extra)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("option '", arg, "' requires a value\n",
                      optionsHelp(scope));
            return argv[++i];
        };

        std::string key;
        std::optional<std::string> inlineValue;
        if (arg == "-j") {
            key = "jobs";
        } else if (arg.rfind("--", 0) == 0) {
            key = arg.substr(2);
            const std::size_t eq = key.find('=');
            if (eq != std::string::npos) {
                inlineValue = key.substr(eq + 1);
                key.erase(eq);
            }
        }
        if (const OptionDef* def = findOption(key, scope)) {
            def->set(inlineValue ? *inlineValue
                                 : (def->isSwitch ? "1" : value()),
                     opt, grid);
        } else if (extra && extra(arg, value)) {
            continue;
        } else if (!extra && (arg == "--help" || arg == "-h")) {
            std::fputs(optionsHelp(scope).c_str(), stdout);
            std::exit(0);
        } else {
            fatal("unknown option '", arg, "'\n", optionsHelp(scope));
        }
    }
    setLogVerbosity(opt.logLevel);
}

RunOptions
parseCommandLine(int argc, char** argv, RunOptions defaults)
{
    GridSettings unused;
    parseArgs(argc, argv, Scope::Run, defaults, unused);
    return defaults;
}

RunOptions
parseCommandLineOrExit(int argc, char** argv)
{
    try {
        return parseCommandLine(argc, argv);
    } catch (const FatalError& e) {
        std::fprintf(stderr, "%s: %s\n",
                     argc > 0 ? argv[0] : "run", e.what());
        std::exit(2);
    }
}

void
applyGridKey(const std::string& key, const std::string& value,
             RunOptions& opt, GridSettings& grid)
{
    if (const OptionDef* def = findOption(key, Scope::Sweep)) {
        def->set(value, opt, grid);
        return;
    }
    std::string valid;
    for (const OptionDef& def : kOptions)
        valid += (valid.empty() ? "" : ", ") + std::string(def.key);
    fatal("unknown grid key '", key, "'; valid keys: ", valid);
}

void
printGridKeys(std::ostream& os)
{
    os << "grid keys (`key = value` in grid files, `key=value` with "
          "--set, `--key value` as flags):\n";
    for (const OptionDef& def : kOptions) {
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
        if (trim(line).empty())
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            fatal("grid file ", path, ":", lineno,
                  ": expected `key = value`, got '", line, "'");
        applyGridKey(trim(line.substr(0, eq)),
                     trim(line.substr(eq + 1)), opt, grid);
    }
}

std::vector<std::string>
splitList(const std::string& list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string item =
            trim(list.substr(start, comma - start));
        if (!item.empty())
            out.push_back(item);
        start = comma + 1;
    }
    return out;
}

trace::TracerConfig
nextTraceConfig(const std::string& base)
{
    trace::TracerConfig cfg;
    if (base.empty())
        return cfg;

    // One process may run many accelerator instances; suffix each
    // instance after the first so traces coexist.
    static std::atomic<unsigned> instance{0};
    const unsigned idx =
        instance.fetch_add(1, std::memory_order_relaxed);
    cfg.enabled = true;
    cfg.path = idx == 0 ? base : suffixPath(base, std::to_string(idx));
    return cfg;
}

trace::TracerConfig
traceConfigTagged(const std::string& base, const std::string& tag)
{
    trace::TracerConfig cfg;
    if (base.empty())
        return cfg;
    cfg.enabled = true;
    cfg.path = suffixPath(base, tag);
    return cfg;
}

} // namespace driver
} // namespace ts
