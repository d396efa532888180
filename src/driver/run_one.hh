/**
 * @file
 * runOne: the one way to assemble and execute a single simulated run.
 *
 * Every binary that is not a sweep — the figure benches, the
 * examples, one-shot tools — used to repeat the same glue: make a
 * workload, build a Delta with the options applied, emit the graph,
 * run, check, and hand-write a bench-JSON wrapper.  That glue lives
 * here once.  The sweep engine (sweep.hh) remains separate: it adds
 * caching and deterministic grid aggregation on top of the same
 * underlying steps.
 *
 * Three entry points, most-derived first:
 *   runOne(opt, spec)       custom build/check callbacks (examples
 *                           with hand-rolled graphs)
 *   runOne(opt, wl, cfg)    a constructed Workload instance
 *   runOne(opt, w, cfg)     a suite workload by id, scaled by
 *                           opt.suiteParams()
 *
 * All of them inject the options' outputs (trace, stats-json,
 * bench-json, ...) via RunOptions::applyTo, and write the
 * bench-JSON wrapper to opt.benchJsonDir when set — callers never
 * touch StatSet serialization themselves.
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

    /** Stem of the bench-JSON wrapper file (defaults to "run"). */
    std::string tag;

    /** The wrapper's "workload" field (defaults to tag). */
    std::string name;
};

/** Assemble and execute one run described by @p spec. */
RunResult runOne(const RunOptions& opt, const RunSpec& spec);

/** Run a constructed workload instance under @p cfg. */
RunResult runOne(const RunOptions& opt, Workload& wl, DeltaConfig cfg);

/** Run suite workload @p w under @p cfg, scaled and seeded by
 *  opt.suiteParams(). */
RunResult runOne(const RunOptions& opt, Wk w, DeltaConfig cfg);

} // namespace driver
} // namespace ts

#endif // TS_DRIVER_RUN_ONE_HH
