#include "driver/options.hh"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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

double
parseScale(const std::string& s, const char* what)
{
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !(v > 0))
        fatal(what, " must be a positive number, got '", s, "'");
    return v;
}

std::uint64_t
parseSeed(const std::string& s, const char* what)
{
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0')
        fatal(what, " must be a non-negative integer, got '", s, "'");
    return v;
}

int
parseLogLevel(const std::string& s, const char* what)
{
    char* end = nullptr;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || v < 0 || v > 2)
        fatal(what, " must be 0, 1, or 2, got '", s, "'");
    return static_cast<int>(v);
}

unsigned
parseJobs(const std::string& s, const char* what)
{
    char* end = nullptr;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || v < 1)
        fatal(what, " must be a positive integer, got '", s, "'");
    return static_cast<unsigned>(v);
}

std::string
parseProgress(const std::string& s, const char* what)
{
    if (s != "auto" && s != "always" && s != "never")
        fatal(what, " must be auto, always, or never, got '", s, "'");
    return s;
}

std::uint64_t
parseCount(const std::string& s, const char* what)
{
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0')
        fatal(what, " must be a non-negative integer, got '", s, "'");
    return v;
}

StealPolicy
parseSteal(const std::string& s, const char* what)
{
    StealPolicy p = StealPolicy::None;
    if (!stealPolicyFromName(s, p))
        fatal(what, " must be none, steal-one, or steal-half, got '",
              s, "'");
    return p;
}

SchedPolicy
parseSched(const std::string& s, const char* what)
{
    SchedPolicy p = SchedPolicy::WorkAware;
    if (!schedPolicyFromName(s, p))
        fatal(what,
              " must be static, dyncount, workaware, or spatial, "
              "got '",
              s, "'");
    return p;
}

} // namespace

SuiteParams
RunOptions::suiteParams() const
{
    SuiteParams sp;
    sp.scale = scale;
    sp.seed = seed;
    return sp;
}

DeltaConfig
RunOptions::applyTo(DeltaConfig cfg) const
{
    if (!cfg.trace.enabled && !tracePath.empty())
        cfg.trace = nextTraceConfig(tracePath);
    if (cfg.statsJsonPath.empty())
        cfg.statsJsonPath = statsJsonPath;
    if (noFastForward)
        cfg.noFastForward = true;
    if (cfg.steal == StealPolicy::None)
        cfg.steal = steal;
    if (schedSet)
        cfg.policy = sched;
    if (cfg.timelineInterval == 0)
        cfg.timelineInterval = timelineInterval;
    if (cfg.timelineSeries.empty())
        cfg.timelineSeries = timelineSeries;
    if (hostProfile)
        cfg.hostProfile = true;
    if (cfg.flightRecorder == 0)
        cfg.flightRecorder = flightRecorder;
    return cfg;
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

void
RunOptions::applyLogLevel() const
{
    setLogVerbosity(logLevel);
}

RunOptions
RunOptions::fromEnv()
{
    // The single place in the tree that reads the environment: the
    // legacy TS_* variables remain supported as documented fallbacks
    // for the shared flags.
    RunOptions opt;
    const auto env = [](const char* name) -> std::string {
        const char* v = std::getenv(name);
        return v == nullptr ? std::string() : std::string(v);
    };

    opt.workloads = workloadsFromList(env("TS_WORKLOADS"));
    if (const std::string s = env("TS_SCALE"); !s.empty())
        opt.scale = parseScale(s, "TS_SCALE");
    if (const std::string s = env("TS_SEED"); !s.empty())
        opt.seed = parseSeed(s, "TS_SEED");
    if (const std::string s = env("TS_LOG"); !s.empty())
        opt.logLevel = parseLogLevel(s, "TS_LOG");
    opt.tracePath = env("TS_TRACE");
    opt.statsJsonPath = env("TS_STATS_JSON");
    opt.benchJsonDir = env("TS_BENCH_JSON");
    if (const std::string s = env("TS_NO_FAST_FORWARD"); !s.empty())
        opt.noFastForward = s != "0";
    if (const std::string s = env("TS_STEAL"); !s.empty())
        opt.steal = parseSteal(s, "TS_STEAL");
    if (const std::string s = env("TS_SCHED"); !s.empty()) {
        opt.sched = parseSched(s, "TS_SCHED");
        opt.schedSet = true;
    }
    if (const std::string s = env("TS_PROGRESS"); !s.empty())
        opt.progress = parseProgress(s, "TS_PROGRESS");
    if (const std::string s = env("TS_TIMELINE"); !s.empty())
        opt.timelineInterval = parseCount(s, "TS_TIMELINE");
    opt.timelineSeries = env("TS_TIMELINE_SERIES");
    if (const std::string s = env("TS_HOST_PROFILE"); !s.empty())
        opt.hostProfile = s != "0";
    if (const std::string s = env("TS_FLIGHT_RECORDER"); !s.empty())
        opt.flightRecorder = static_cast<std::size_t>(
            parseCount(s, "TS_FLIGHT_RECORDER"));
    return opt;
}

const char*
optionsHelp()
{
    return
        "shared run options (each falls back to its TS_* variable):\n"
        "  --workloads LIST   comma-separated workloads, 'all' = suite\n"
        "                     [TS_WORKLOADS]\n"
        "  --scale X          problem-size multiplier, > 0 [TS_SCALE]\n"
        "  --seed N           base RNG seed [TS_SEED]\n"
        "  --trace PATH       Perfetto trace output [TS_TRACE]\n"
        "  --stats-json PATH  flat StatSet JSON dump [TS_STATS_JSON]\n"
        "  --bench-json DIR   per-run wrapper dumps [TS_BENCH_JSON]\n"
        "  --log N            stderr verbosity 0|1|2 [TS_LOG]\n"
        "  --no-fast-forward  naive per-cycle ticking (bit-identical\n"
        "                     reference mode) [TS_NO_FAST_FORWARD]\n"
        "  --steal P          lane work stealing over the NoC:\n"
        "                     none|steal-one|steal-half (behaviour-\n"
        "                     relevant: part of run-cache keys)\n"
        "                     [TS_STEAL]\n"
        "  --sched P          scheduling policy override:\n"
        "                     static|dyncount|workaware|spatial\n"
        "                     (behaviour-relevant: part of run-cache\n"
        "                     keys) [TS_SCHED]\n"
        "  --progress[=]MODE  sweep progress lines: auto|always|never\n"
        "                     (auto = only when stderr is a TTY)\n"
        "                     [TS_PROGRESS]\n"
        "  --timeline N       sample a delta.timeline.* time series\n"
        "                     every N simulated cycles (0 = off)\n"
        "                     [TS_TIMELINE]\n"
        "  --timeline-series LIST\n"
        "                     probe-group subset out of\n"
        "                     lanes,ready,noc,dram (default: all)\n"
        "                     [TS_TIMELINE_SERIES]\n"
        "  --host-profile     attribute host wall time per component\n"
        "                     class and phase (sim.host.profile.*)\n"
        "                     [TS_HOST_PROFILE]\n"
        "  --flight-recorder N\n"
        "                     keep a ring of the last N sleep/wake/\n"
        "                     commit/event records, dumped on\n"
        "                     deadlock (0 = off) [TS_FLIGHT_RECORDER]\n"
        "  -j N, --jobs N     host worker threads (default: hardware\n"
        "                     concurrency)\n";
}

RunOptions
parseCommandLine(int& argc, char** argv, bool strict)
{
    RunOptions opt = RunOptions::fromEnv();

    std::vector<char*> keep;
    keep.reserve(static_cast<std::size_t>(argc));
    if (argc > 0)
        keep.push_back(argv[0]);

    int i = 1;
    const auto value = [&](const char* flag) -> std::string {
        if (i + 1 >= argc)
            fatal("option '", flag, "' requires a value\n",
                  optionsHelp());
        return argv[++i];
    };

    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workloads") {
            opt.workloads = workloadsFromList(value("--workloads"));
        } else if (arg == "--scale") {
            opt.scale = parseScale(value("--scale"), "--scale");
        } else if (arg == "--seed") {
            opt.seed = parseSeed(value("--seed"), "--seed");
        } else if (arg == "--log") {
            opt.logLevel = parseLogLevel(value("--log"), "--log");
        } else if (arg == "--trace") {
            opt.tracePath = value("--trace");
        } else if (arg == "--stats-json") {
            opt.statsJsonPath = value("--stats-json");
        } else if (arg == "--bench-json") {
            opt.benchJsonDir = value("--bench-json");
        } else if (arg == "--no-fast-forward") {
            opt.noFastForward = true;
        } else if (arg == "--steal") {
            opt.steal = parseSteal(value("--steal"), "--steal");
        } else if (arg == "--sched") {
            opt.sched = parseSched(value("--sched"), "--sched");
            opt.schedSet = true;
        } else if (arg == "--progress") {
            opt.progress =
                parseProgress(value("--progress"), "--progress");
        } else if (arg.rfind("--progress=", 0) == 0) {
            opt.progress = parseProgress(
                arg.substr(std::strlen("--progress=")), "--progress");
        } else if (arg == "--timeline") {
            opt.timelineInterval =
                parseCount(value("--timeline"), "--timeline");
        } else if (arg == "--timeline-series") {
            opt.timelineSeries = value("--timeline-series");
        } else if (arg == "--host-profile") {
            opt.hostProfile = true;
        } else if (arg == "--flight-recorder") {
            opt.flightRecorder = static_cast<std::size_t>(parseCount(
                value("--flight-recorder"), "--flight-recorder"));
        } else if (arg == "-j" || arg == "--jobs") {
            opt.jobs = parseJobs(value("--jobs"), "--jobs");
        } else if (strict && (arg == "--help" || arg == "-h")) {
            std::fputs(optionsHelp(), stdout);
            std::exit(0);
        } else if (strict && !arg.empty() && arg[0] == '-') {
            fatal("unknown option '", arg, "'\n", optionsHelp());
        } else {
            keep.push_back(argv[i]);
        }
    }

    argc = static_cast<int>(keep.size());
    for (std::size_t k = 0; k < keep.size(); ++k)
        argv[k] = keep[k];
    if (argc >= 0)
        argv[argc] = nullptr;

    opt.applyLogLevel();
    return opt;
}

RunOptions
parseCommandLineOrExit(int& argc, char** argv, bool strict)
{
    try {
        return parseCommandLine(argc, argv, strict);
    } catch (const FatalError& e) {
        std::fprintf(stderr, "%s: %s\n",
                     argc > 0 ? argv[0] : "run", e.what());
        std::exit(2);
    }
}

trace::TracerConfig
nextTraceConfig(const std::string& base)
{
    trace::TracerConfig cfg;
    if (base.empty())
        return cfg;

    // One process may run many accelerator instances (the benches);
    // suffix each instance after the first so traces coexist.
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
