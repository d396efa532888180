/**
 * @file
 * The parallel sweep engine: expand a declarative grid of simulated
 * runs (workloads x accelerator configs x seeds x scales), execute
 * the points on a host thread pool, and aggregate the results
 * deterministically.
 *
 * Every point is fully isolated — its own Delta, its own workload
 * instance, its own RNG seeded from the point — and each run's
 * tracer and stat set belong to its own Simulator (see trace.hh /
 * stats.hh), so N concurrent simulations never share mutable state.
 * Results are stored by grid index, so per-run StatSets and every
 * aggregate are bit-identical between `-j 1` and `-j N`; only
 * wall-clock changes.
 *
 * Aggregation:
 *  - per-run StatSets keyed by point (workload, config, seed, scale);
 *  - cross-seed mean/stddev of cycles per (workload, config, scale);
 *  - paired speedups versus a designated baseline config, computed
 *    in-process per (workload, seed, scale) and summarized across
 *    seeds;
 *  - a machine-readable JSON report, plus optional per-run dumps in
 *    the bench-JSON wrapper shape `tools/delta-report --baseline`
 *    already ingests.
 *
 * tools/delta-sweep is a thin CLI over this; the figure benches
 * build a SweepSpec with sweepSpec() and render their tables from
 * the SweepReport.
 */

#ifndef TS_DRIVER_SWEEP_HH
#define TS_DRIVER_SWEEP_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "driver/options.hh"

namespace ts
{
namespace driver
{

/** Names accepted by sweepConfig(): the ablation ladder.
 *    static      bulk-synchronous static-parallel baseline
 *    dyn         dependence-driven dispatch, count-balanced lanes
 *    work        + work-aware lane choice
 *    work-steal  work + NoC work stealing (steal-half)
 *    pipe        + pipelined inter-task dependence recovery
 *    delta       + shared-read multicast (full TaskStream)
 *    spatial     AOT spatial mapping with lane-to-lane forwarding  */
const std::vector<std::string>& sweepConfigNames();

/** Build a named preset; fatal() on an unknown name, listing every
 *  valid one. */
ConfigVariant sweepConfig(const std::string& name,
                          std::uint32_t lanes = 8);

/** Parse a comma-separated list of preset names (fatal on unknown,
 *  empty selects "static,delta"). */
std::vector<ConfigVariant>
sweepConfigsFromList(const std::string& list, std::uint32_t lanes = 8);

/** One point of the expanded grid, in deterministic grid order. */
struct RunPoint
{
    Wk workload = Wk::Spmv;
    std::string config;   ///< ConfigVariant name
    std::uint64_t seed = 7;
    double scale = 1.0;
    std::uint32_t lanes = 8;

    /** Stable identifier: `<wk>_<config>_l<lanes>_s<seed>_x<scale>`
     *  — also the per-run JSON file stem. */
    std::string tag() const;
};

/** The declarative grid: the cross product of the four axes. */
struct SweepSpec
{
    std::vector<Wk> workloads;           ///< must be non-empty
    std::vector<ConfigVariant> configs;  ///< must be non-empty
    std::vector<std::uint64_t> seeds{7};
    std::vector<double> scales{1.0};

    /** Config paired speedups are measured against ("" = the first
     *  config when more than one, else no speedups). */
    std::string baseline;

    /** Worker threads (0 = hardware concurrency). */
    unsigned jobs = 0;

    /** Per-run overrides applied to every point's config (see
     *  RunOverrides::applyTo).  A point's trace lands at
     *  `<base>.<tag>.<ext>` and its bench JSON at `<dir>/<tag>.json`;
     *  Sweep::run creates the directory and fails loudly when it
     *  cannot, and a failed write fails its point.  statsJsonPath
     *  names one file, so a sweep rejects it. */
    RunOverrides overrides;

    /** Progress/ETA lines on stderr as runs retire. */
    bool progress = false;

    /**
     * When non-empty, consult a content-addressed run cache rooted
     * here before executing each point, and publish every finished
     * ok() result after the run.  Hits replay the cached per-run
     * JSON byte-for-byte, so cold and warm sweeps aggregate
     * identically.  Tracing bypasses the cache (a hit would skip the
     * trace the user asked for).
     */
    std::string cacheDir;

    /** Cache size budget in bytes (0 = unbounded). */
    std::uint64_t cacheCapBytes = 0;

    /** Resolved baseline name ("" when speedups are off). */
    std::string baselineName() const;

    /** The config a point of this grid runs under: the named
     *  variant with the overrides applied (trace tagged by
     *  @p point).  Fatal on a name outside `configs`. */
    DeltaConfig pointConfig(const RunPoint& point) const;
};

/** A grid over @p configs with everything else from @p opt: its
 *  workloads, seed, scale, jobs, overrides and progress setting. */
SweepSpec sweepSpec(const RunOptions& opt,
                    std::vector<ConfigVariant> configs);

/** delta-sweep's grid: sweepSpec over grid.configs (at grid.lanes),
 *  with grid's seed/scale axes, baseline and cache when set. */
SweepSpec buildSweepSpec(const RunOptions& opt,
                         const GridSettings& grid);

/** Outcome of one executed point. */
struct RunOutcome
{
    RunPoint point;
    bool correct = false;  ///< workload check() passed
    bool failed = false;   ///< run threw (config error, sim bug, ...)
    std::string error;     ///< what() when failed
    double cycles = 0.0;
    StatSet stats;

    bool ok() const { return correct && !failed; }
};

/** Cross-seed summary of one (workload, config, scale) cell. */
struct CellAggregate
{
    Wk workload = Wk::Spmv;
    std::string config;
    double scale = 1.0;
    std::size_t n = 0;          ///< seeds with an ok() run
    double meanCycles = 0.0;    ///< over ok() runs
    double stddevCycles = 0.0;  ///< sample stddev (0 when n < 2)
};

/** Cross-seed summary of paired speedups vs the baseline config. */
struct PairedSpeedup
{
    Wk workload = Wk::Spmv;
    std::string config;
    double scale = 1.0;
    std::size_t n = 0;      ///< seeds where both runs are ok()
    double mean = 0.0;      ///< mean of per-seed baseline/config
    double stddev = 0.0;    ///< sample stddev (0 when n < 2)
};

/** Everything a finished sweep produced, in grid order. */
struct SweepReport
{
    SweepSpec spec;
    std::vector<RunOutcome> runs;

    /** Run-cache outcome counts (0/0 when no cache was configured).
     *  Not serialized by writeJson: the aggregate report must stay
     *  byte-identical between cold and warm passes. */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;

    /** The outcome for an exact point, or nullptr. */
    const RunOutcome* find(Wk w, const std::string& config,
                           std::uint64_t seed, double scale) const;

    /** Whether every run completed and passed its check. */
    bool allOk() const;

    /** Number of runs that failed or were incorrect. */
    std::size_t failures() const;

    /** Cross-seed cycle statistics, grid order. */
    std::vector<CellAggregate> aggregates() const;

    /** Paired speedups vs spec.baselineName(), grid order (empty
     *  when no baseline resolves). */
    std::vector<PairedSpeedup> pairedSpeedups() const;

    /**
     * The machine-readable report: grid, per-run results (full
     * StatSets), aggregates, and paired speedups.  Deterministic:
     * bit-identical for the same grid regardless of `jobs`.
     */
    void writeJson(std::ostream& os) const;
};

/** The engine.  Validates the spec on construction (fatal on an
 *  empty axis or an unknown baseline name). */
class Sweep
{
  public:
    explicit Sweep(SweepSpec spec);

    /** The expanded grid, in execution-independent order. */
    const std::vector<RunPoint>& points() const { return points_; }

    /** Execute every point and aggregate.  Call once. */
    SweepReport run();

  private:
    SweepSpec spec_;
    std::vector<RunPoint> points_;
};

/**
 * Run fn(0..n-1) on up to @p jobs host threads (0 = hardware
 * concurrency).  The engine's pool, exposed for graph-building
 * figure drivers (tab_workloads) that fan out without simulating.
 * @p fn must not throw.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)>& fn);

/**
 * Canonical single-line rendering of every determinism-relevant
 * DeltaConfig field.  Two configs with equal canonical forms produce
 * bit-identical runs; the form feeds run-cache keys, so any new
 * field that affects simulated behaviour MUST be added here (a
 * missed field risks stale hits across sweeps that vary it).
 */
std::string canonicalConfig(const DeltaConfig& cfg);

/**
 * Canonical single-line run-cell description for a grid point: the
 * workload, seed, scale, config name, and full canonical config.
 * Combined with the code fingerprint this is the run-cache key
 * preimage.
 */
std::string canonicalCell(const SweepSpec& spec,
                          const RunPoint& point);

} // namespace driver
} // namespace ts

#endif // TS_DRIVER_SWEEP_HH
