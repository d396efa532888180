/**
 * @file
 * RunOptions: the one typed description of "how to run a simulation"
 * shared by every binary in the tree (benches, tools, examples).
 *
 * Design rule: **this layer is the only place that reads the
 * environment.**  Binaries parse the shared command-line flags below;
 * each flag falls back to its legacy TS_* environment variable when
 * the flag is absent, so existing scripts keep working, but no
 * std::getenv() call exists anywhere below src/driver/.
 *
 *   flag                    env fallback     meaning
 *   --workloads LIST        TS_WORKLOADS     comma-separated subset
 *                                            ("all"/empty = suite)
 *   --scale X               TS_SCALE         problem-size multiplier
 *   --seed N                TS_SEED          base RNG seed
 *   --trace PATH            TS_TRACE         Perfetto trace output
 *   --stats-json PATH       TS_STATS_JSON    flat StatSet dump
 *   --bench-json DIR        TS_BENCH_JSON    per-run wrapper dumps
 *   --log N                 TS_LOG           stderr verbosity 0|1|2
 *   --no-fast-forward       TS_NO_FAST_FORWARD
 *                                            naive per-cycle ticking
 *   --steal P               TS_STEAL         lane work stealing
 *                                            (none|steal-one|steal-half)
 *   --sched P               TS_SCHED         scheduling policy
 *                                            (static|dyncount|
 *                                            workaware|spatial)
 *   -j N / --jobs N         (none)           host worker threads
 *
 * parseCommandLine() erases the flags it consumed from argv, so
 * google-benchmark binaries can hand the remainder to
 * benchmark::Initialize().  In strict mode any leftover option is
 * fatal, listing the valid flags — tools use that.
 */

#ifndef TS_DRIVER_OPTIONS_HH
#define TS_DRIVER_OPTIONS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "accel/delta.hh"
#include "workloads/workload.hh"

namespace ts
{
namespace driver
{

/** Everything a single simulated run needs from the outside world. */
struct RunOptions
{
    /** Workloads this process operates on (the whole suite unless
     *  narrowed by --workloads/TS_WORKLOADS). */
    std::vector<Wk> workloads;

    double scale = 1.0;      ///< problem-size multiplier (> 0)
    std::uint64_t seed = 7;  ///< base RNG seed
    int logLevel = 1;        ///< stderr verbosity (0|1|2)

    std::string tracePath;     ///< Perfetto trace out ("" = off)
    std::string statsJsonPath; ///< flat StatSet dump ("" = off)
    std::string benchJsonDir;  ///< per-run wrapper dumps ("" = off)

    /** Disable the activity-driven simulation core and tick every
     *  component every cycle (the naive reference mode).  Results are
     *  bit-identical either way; this exists for differential testing
     *  and host-performance comparison. */
    bool noFastForward = false;

    /** NoC work stealing between lane task units
     *  (none|steal-one|steal-half).  Behaviour-relevant: participates
     *  in canonicalConfig / cache keys.  --steal P / TS_STEAL. */
    StealPolicy steal = StealPolicy::None;

    /** Scheduling policy override
     *  (static|dyncount|workaware|spatial); only applied when
     *  schedSet (presets keep their own policy otherwise).
     *  Behaviour-relevant: participates in canonicalConfig / cache
     *  keys.  --sched P / TS_SCHED. */
    SchedPolicy sched = SchedPolicy::WorkAware;
    bool schedSet = false; ///< --sched/TS_SCHED was given

    /** Host worker threads for sweep-style drivers (0 = pick
     *  hardware concurrency at use site). */
    unsigned jobs = 0;

    /**
     * Progress/ETA lines on stderr for sweep-style drivers:
     * "auto" (default) emits them only when stderr is a TTY,
     * "always" forces them (CI logs), "never" suppresses them.
     * --progress[=]VALUE / TS_PROGRESS.
     */
    std::string progress = "auto";

    /** Timeline sampling interval in simulated cycles (0 = off).
     *  --timeline N / TS_TIMELINE. */
    Tick timelineInterval = 0;

    /** Timeline probe-group subset ("lanes,ready,noc,dram"; empty =
     *  all).  --timeline-series LIST / TS_TIMELINE_SERIES. */
    std::string timelineSeries;

    /** Attribute host wall-ns per component class and simulator
     *  phase (sim.host.profile.*).  --host-profile /
     *  TS_HOST_PROFILE. */
    bool hostProfile = false;

    /** Flight-recorder ring capacity in records (0 = off).
     *  --flight-recorder N / TS_FLIGHT_RECORDER. */
    std::size_t flightRecorder = 0;

    /**
     * Resolve the progress setting against a TTY check of stderr:
     * "always" is true, "never" is false, "auto" is isatty(stderr).
     */
    bool progressEnabled() const;

    /** Suite knobs in the shape the workload factories expect. */
    SuiteParams suiteParams() const;

    /**
     * Inject this run's output options into an accelerator config:
     * sets cfg.statsJsonPath, and when tracing is requested installs
     * a per-instance trace path (the second and later accelerator
     * instances in one process get a ".N" suffix before the
     * extension, so traces never overwrite each other).
     */
    DeltaConfig applyTo(DeltaConfig cfg) const;

    /** Apply logLevel to the process-wide logger (setLogVerbosity). */
    void applyLogLevel() const;

    /**
     * Options from the environment alone: every TS_* fallback above,
     * validated exactly like the flags (fatal on bad values, unknown
     * workload names listed).  This is the only function in the tree
     * that reads the environment.
     */
    static RunOptions fromEnv();
};

/**
 * Parse the shared flags out of argv (argv[0] is preserved).
 * Consumed arguments are erased and argc updated; anything
 * unrecognized is left in place for the caller (google-benchmark
 * flags, positional arguments).  With @p strict set, any remaining
 * argument starting with '-' is fatal() listing the valid flags.
 * Starts from fromEnv(), so flags override the environment.
 * `--help` prints optionsHelp() to stdout and exits 0 in strict
 * mode; in lenient mode it is left for the caller's own help path.
 */
RunOptions parseCommandLine(int& argc, char** argv,
                            bool strict = false);

/** One-screen reference for the shared flags (ends with '\n'). */
const char* optionsHelp();

/** parseCommandLine(strict), but option errors print to stderr and
 *  exit(2) instead of throwing — for examples and small CLIs whose
 *  main() has no try/catch. */
RunOptions parseCommandLineOrExit(int& argc, char** argv,
                                  bool strict = true);

/**
 * Trace config for one accelerator instance: disabled when @p base
 * is empty; otherwise instance 0 gets @p base verbatim and instance
 * i > 0 gets ".i" inserted before the extension.  Instance numbers
 * come from a process-wide atomic counter, so serial benches that
 * construct many Deltas keep distinct trace files.  Sweep drivers
 * that need deterministic names bypass this and set
 * DeltaConfig::trace explicitly via traceConfigTagged().
 */
trace::TracerConfig nextTraceConfig(const std::string& base);

/** Deterministically named trace config: ".<tag>" before the
 *  extension of @p base; disabled when @p base is empty. */
trace::TracerConfig traceConfigTagged(const std::string& base,
                                      const std::string& tag);

} // namespace driver
} // namespace ts

#endif // TS_DRIVER_OPTIONS_HH
