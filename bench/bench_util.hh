/**
 * @file
 * Shared infrastructure for the experiment benchmarks: run one
 * workload under one configuration, verify correctness, and collect
 * the statistics the paper-style tables report.
 *
 * All knobs come from the shared options layer (ts::driver
 * RunOptions): call bench::init(&argc, argv) first thing in main()
 * to consume the shared flags (--workloads, --scale, --seed,
 * --trace, --bench-json, --log, -j; each with its TS_* environment
 * fallback) and hand the untouched remainder to
 * benchmark::Initialize().  No bench reads the environment itself.
 */

#ifndef TS_BENCH_BENCH_UTIL_HH
#define TS_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <string>

#include "driver/options.hh"
#include "driver/run_one.hh"
#include "workloads/workload.hh"

namespace ts::bench
{

/** This process's run options.  Defaults to the environment
 *  fallbacks until init() overwrites them with parsed flags. */
inline driver::RunOptions&
options()
{
    static driver::RunOptions opt = [] {
        driver::RunOptions o = driver::RunOptions::fromEnv();
        o.applyLogLevel();
        return o;
    }();
    return opt;
}

/** Parse the shared flags out of argv (call before
 *  benchmark::Initialize, which consumes the rest). */
inline void
init(int* argc, char** argv)
{
    options() = driver::parseCommandLine(*argc, argv);
}

/**
 * Workloads this bench process runs (--workloads/TS_WORKLOADS,
 * "all" or unset = whole suite; unknown names fail fast with the
 * valid names listed).  Both the registration and table-printing
 * loops must use this same list.
 */
inline const std::vector<Wk>&
suiteWorkloads()
{
    return options().workloads;
}

/** Suite scaling knobs (--scale/TS_SCALE problem-size multiplier,
 *  --seed/TS_SEED) — small CI runs use --scale 0.25 without
 *  rebuilding. */
inline SuiteParams
suiteParams()
{
    return options().suiteParams();
}

/** Outcome of one simulated run (driver::runOne's result type;
 *  bench-JSON emission now lives there too). */
using RunResult = driver::RunResult;

/** Build and simulate one workload under one configuration (trace,
 *  stats, and bench-JSON outputs injected from the shared
 *  options via driver::runOne). */
inline RunResult
runOnce(Wk w, const DeltaConfig& cfg, const SuiteParams& sp)
{
    auto wl = makeWorkload(w, sp);
    return driver::runOne(options(), *wl, cfg);
}

/** Print a horizontal rule sized for our tables. */
inline void
rule(int width = 72)
{
    std::puts(std::string(static_cast<std::size_t>(width), '-').c_str());
}

/** Geometric mean of a vector of ratios. */
inline double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double logSum = 0.0;
    for (const double x : v)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(v.size()));
}

} // namespace ts::bench

#endif // TS_BENCH_BENCH_UTIL_HH
