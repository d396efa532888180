/**
 * @file
 * The run-option vocabulary shared by every binary in the tree
 * (benches, tools, examples): one table of options, each with its
 * key, accepted values, help line and setter.
 *
 * The same table backs every way to set an option:
 *   --key VALUE / --key=VALUE    command-line flags of every binary
 *   key = value                  delta-sweep grid files (--grid)
 *   --set key=value              one grid setting inline
 * and generates optionsHelp() and `delta-sweep --list-grid-keys`,
 * so the listings cannot drift from what the parser accepts.
 * Options are flags only: nothing in the tree reads the environment.
 *
 * Options that shape a simulated run (trace, stats, no-fast-forward,
 * steal, sched, timeline, host-profile, flight-recorder, ...) land in
 * one RunOverrides value, held by both RunOptions and SweepSpec and
 * folded into a DeltaConfig by RunOverrides::applyTo — the single
 * place a command-line choice reaches the accelerator config.
 */

#ifndef TS_DRIVER_OPTIONS_HH
#define TS_DRIVER_OPTIONS_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "accel/delta.hh"
#include "workloads/workload.hh"

namespace ts
{
namespace driver
{

/** One named accelerator configuration (a sweep grid column, or the
 *  "config" label of a one-shot run). */
struct ConfigVariant
{
    std::string name;
    DeltaConfig cfg;
};

/** Per-run choices folded into every DeltaConfig a binary runs. */
struct RunOverrides
{
    std::string tracePath;     ///< Perfetto trace out ("" = off)
    std::string statsJsonPath; ///< flat StatSet dump; one run only
    std::string benchJsonDir;  ///< per-run wrapper dumps ("" = off)

    /** Naive per-cycle ticking (bit-identical reference mode). */
    bool noFastForward = false;

    /** NoC work stealing for configs whose preset leaves it off. */
    StealPolicy steal = StealPolicy::None;

    /** Scheduling-policy override for every config (unset = each
     *  preset keeps its own policy). */
    std::optional<SchedPolicy> sched;

    /** delta.timeline.* sampling interval (0 = off) and probe-group
     *  subset (empty = all). */
    Tick timelineInterval = 0;
    std::string timelineSeries;

    /** Host wall-time attribution (sim.host.profile.*). */
    bool hostProfile = false;

    /** Flight-recorder ring capacity in records (0 = off). */
    std::size_t flightRecorder = 0;

    /**
     * @p cfg with every set override applied.  Overrides replace the
     * config's value, except that steal only fills configs whose
     * preset leaves stealing off and a config that already traces
     * keeps its tracer.  With a @p traceTag the trace lands at
     * `<base>.<tag>.<ext>` (sweep points); without one, instances are
     * numbered in creation order and the first gets the path
     * verbatim (nextTraceConfig).
     */
    DeltaConfig applyTo(DeltaConfig cfg,
                        const std::string& traceTag = "") const;
};

/** Everything a single simulated run needs from the outside world. */
struct RunOptions
{
    /** Workloads this process operates on; a figure pre-sets its own
     *  list before parsing, --workloads replaces it. */
    std::vector<Wk> workloads = allWorkloads();

    double scale = 1.0;      ///< problem-size multiplier (> 0)
    std::uint64_t seed = 7;  ///< base RNG seed
    int logLevel = 1;        ///< stderr verbosity (0|1|2)

    /** Host worker threads (0 = hardware concurrency). */
    unsigned jobs = 0;

    /** Sweep progress lines on stderr: "auto" (only when stderr is
     *  a TTY), "always", or "never". */
    std::string progress = "auto";

    RunOverrides overrides;

    /** Resolve `progress` against a TTY check of stderr. */
    bool progressEnabled() const;

    /** Suite knobs in the shape the workload factories expect. */
    SuiteParams suiteParams() const;
};

/** The grid axes and sweep outputs only delta-sweep sets. */
struct GridSettings
{
    std::string configs;   ///< preset list ("" = static,delta)
    std::vector<std::uint64_t> seeds; ///< empty = {--seed}
    std::vector<double> scales;       ///< empty = {--scale}
    std::uint32_t lanes = 8;
    std::string baseline;
    std::string out;

    std::string cacheDir;            ///< run cache ("" = off)
    std::uint64_t cacheCapBytes = 0; ///< cache budget (0 = unbounded)
};

/** Which binaries accept an option. */
enum class Scope
{
    Run,   ///< every binary
    Sweep, ///< delta-sweep: the Run options plus the grid axes
};

/**
 * A binary's own flags, tried after the option table: return true
 * when @p arg is yours, pulling its value (if any) with value().
 */
using ExtraArgs = std::function<bool(
    const std::string& arg, const std::function<std::string()>& value)>;

/**
 * Parse argv[1..] against the option table into @p opt and @p grid,
 * in order, so later flags win.  An argument the table does not know
 * (in @p scope) goes to @p extra; when there is no handler, `--help`
 * prints optionsHelp(scope) and exits 0, and anything else is fatal,
 * listing the valid flags.  Applies opt.logLevel to the process-wide
 * logger when done.
 */
void parseArgs(int argc, char** argv, Scope scope, RunOptions& opt,
               GridSettings& grid, const ExtraArgs& extra = {});

/** parseArgs for a single-run or figure binary, starting from
 *  @p defaults (a figure's own workload list, say). */
RunOptions parseCommandLine(int argc, char** argv,
                            RunOptions defaults = {});

/** parseCommandLine, but option errors print to stderr and exit(2)
 *  instead of throwing — for examples whose main() has no
 *  try/catch. */
RunOptions parseCommandLineOrExit(int argc, char** argv);

/** One-screen reference for the flags of @p scope, generated from
 *  the option table (ends with '\n'). */
std::string optionsHelp(Scope scope = Scope::Run);

/**
 * Apply one `key = value` setting (grid files, --set).  Every table
 * key is valid; an unknown one is fatal listing them all.
 */
void applyGridKey(const std::string& key, const std::string& value,
                  RunOptions& opt, GridSettings& grid);

/** Print the whole `key = value` vocabulary from the option table
 *  (backs `delta-sweep --list-grid-keys`). */
void printGridKeys(std::ostream& os);

/** Read a `key = value` grid file ('#' comments, blank lines ok). */
void loadGridFile(const std::string& path, RunOptions& opt,
                  GridSettings& grid);

/** Split a comma-separated list, trimming surrounding whitespace and
 *  dropping empty entries. */
std::vector<std::string> splitList(const std::string& list);

/**
 * Trace config for one accelerator instance: disabled when @p base
 * is empty; otherwise instance 0 gets @p base verbatim and instance
 * i > 0 gets ".i" inserted before the extension.  Instance numbers
 * come from a process-wide atomic counter.
 */
trace::TracerConfig nextTraceConfig(const std::string& base);

/** Deterministically named trace config: ".<tag>" before the
 *  extension of @p base; disabled when @p base is empty. */
trace::TracerConfig traceConfigTagged(const std::string& base,
                                      const std::string& tag);

} // namespace driver
} // namespace ts

#endif // TS_DRIVER_OPTIONS_HH
