/**
 * @file
 * The figure harness: every figure and table binary in bench/ parses
 * the shared run options (src/driver/options.hh) on top of its own
 * workload list, runs its points as driver::Sweep grids (or, for
 * fig_grain's custom workload instances, driver::runOne), and renders
 * its table from the results.
 *
 * So every figure honours --workloads, --scale, --seed, -j,
 * --bench-json, --trace, --sched, --steal and the other per-run
 * overrides the same way delta-sweep does, and exits 0 only when
 * every run passed its check (1 otherwise, 2 on option errors).
 */

#ifndef TS_BENCH_BENCH_UTIL_HH
#define TS_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "driver/sweep.hh"
#include "sim/logging.hh"

namespace ts::bench
{

/**
 * A figure's main(): parse the options, starting from @p workloads
 * as the default selection, and run @p body, which returns whether
 * every run passed.  A figure runs many points, so --stats-json
 * (one run's file) is rejected like any other option error.
 */
inline int
figureMain(const char* name, int argc, char** argv,
           std::vector<Wk> workloads,
           const std::function<bool(const driver::RunOptions&)>& body)
{
    try {
        driver::RunOptions defaults;
        defaults.workloads = std::move(workloads);
        const driver::RunOptions opt =
            driver::parseCommandLine(argc, argv, defaults);
        if (!opt.overrides.statsJsonPath.empty())
            fatal("--stats-json writes one run's stats, but ", name,
                  " runs many; use --bench-json DIR");
        return body(opt) ? 0 : 1;
    } catch (const FatalError& e) {
        std::fprintf(stderr, "%s: %s\n", name, e.what());
        return 2;
    }
}

/** Run @p configs over opt's workloads (or @p workloads when given)
 *  at opt's seed and scale; failed or incorrect points are listed
 *  on stderr. */
inline driver::SweepReport
runSweep(const driver::RunOptions& opt,
         std::vector<driver::ConfigVariant> configs,
         std::vector<Wk> workloads = {})
{
    driver::SweepSpec spec = driver::sweepSpec(opt, std::move(configs));
    if (!workloads.empty())
        spec.workloads = std::move(workloads);
    driver::SweepReport report = driver::Sweep(std::move(spec)).run();
    for (const driver::RunOutcome& r : report.runs) {
        if (!r.ok())
            std::fprintf(stderr, "  %-32s %s\n", r.point.tag().c_str(),
                         r.failed ? r.error.c_str() : "check failed");
    }
    return report;
}

/** main() of a figure that is one sweep: @p configs over the
 *  selected workloads (default @p workloads), rendered by @p print. */
inline int
sweepFigure(const char* name, int argc, char** argv,
            std::vector<Wk> workloads,
            std::vector<driver::ConfigVariant> configs,
            void (*print)(const driver::SweepReport&))
{
    return figureMain(name, argc, argv, std::move(workloads),
                      [&](const driver::RunOptions& opt) {
                          const driver::SweepReport report =
                              runSweep(opt, configs);
                          print(report);
                          return report.allOk();
                      });
}

/** The run of (@p w, @p config) in a one-seed, one-scale sweep. */
inline const driver::RunOutcome&
outcome(const driver::SweepReport& report, Wk w,
        const std::string& config)
{
    return *report.find(w, config, report.spec.seeds.front(),
                        report.spec.scales.front());
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
