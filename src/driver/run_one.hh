/**
 * @file
 * runOne: the one way to assemble and execute a single simulated run
 * outside a sweep grid (examples, and fig_grain's custom workload
 * instances).  The sweep engine (sweep.hh) runs its points through
 * the same override folding and writes the same bench-JSON wrapper.
 *
 * Two entry points:
 *   runOne(opt, spec)            custom build/check callbacks
 *                                (examples with hand-rolled graphs)
 *   runOne(opt, wl, config)      a constructed Workload instance
 *
 * Both fold opt.overrides into the config (RunOverrides::applyTo)
 * and, when opt.overrides.benchJsonDir is set, write the run's
 * wrapper to `<dir>/<tag>.json` — callers never touch StatSet
 * serialization themselves.
 */

#ifndef TS_DRIVER_RUN_ONE_HH
#define TS_DRIVER_RUN_ONE_HH

#include <functional>
#include <string>

#include "driver/options.hh"

namespace ts
{
namespace driver
{

/** Outcome of one simulated run. */
struct RunResult
{
    double cycles = 0;   ///< delta.cycles
    bool correct = false; ///< check passed (true when there is none)
    StatSet stats;        ///< the run's full statistics dump
};

/** A fully custom run: the accelerator config plus callbacks. */
struct RunSpec
{
    DeltaConfig cfg;

    /** Lay out data, register task types, emit the graph. */
    std::function<void(Delta&, TaskGraph&)> build;

    /** Verify results after the run (empty = always correct). */
    std::function<bool(Delta&)> check;

    /** The wrapper's "workload" and "config" labels, which also make
     *  up the file tag (config defaults to the policy name). */
    std::string workload = "run";
    std::string config;
};

/** Assemble and execute one run described by @p spec. */
RunResult runOne(const RunOptions& opt, const RunSpec& spec);

/** Run a constructed workload instance under @p config. */
RunResult runOne(const RunOptions& opt, Workload& wl,
                 const ConfigVariant& config);

/** A scale as tags and JSON spell it ("%g"). */
std::string formatScale(double scale);

/** `<workload>_<config>_l<lanes>_s<seed>_x<scale>`: the stem of a
 *  run's bench-JSON and trace file names. */
std::string runTag(const std::string& workload,
                   const std::string& config, std::uint32_t lanes,
                   std::uint64_t seed, double scale);

/** The bench-JSON wrapper of one finished run, as every per-run dump
 *  and run-cache payload spells it. */
std::string benchWrapperJson(const std::string& workload,
                             const std::string& config,
                             std::uint32_t lanes, std::uint64_t seed,
                             double scale, bool correct, double cycles,
                             const StatSet& stats);

/** Write @p payload to `<dir>/<tag>.json`; returns "" or an error
 *  naming the path. */
std::string writeBenchJson(const std::string& dir,
                           const std::string& tag,
                           const std::string& payload);

/** Create a bench-JSON directory (fatal, naming it, when it cannot
 *  be created). */
void makeBenchJsonDir(const std::string& dir);

} // namespace driver
} // namespace ts

#endif // TS_DRIVER_RUN_ONE_HH
