/**
 * @file
 * Sparse-analytics scenario: a skewed CSR SpMV, run under all three
 * scheduling policies and under the bulk-synchronous static-parallel
 * baseline, demonstrating the two TaskStream annotations that matter
 * for sparse workloads:
 *
 *  - work hints: row-block tasks carry wildly different nonzero
 *    counts, and the work-aware policy reads that straight from the
 *    stream descriptors;
 *  - shared reads: every task gathers from the same dense vector,
 *    which the hardware multicasts into lane scratchpads once.
 *
 *   $ ./build/examples/sparse_analytics
 */

#include <cstdio>

#include "driver/run_one.hh"
#include "driver/sweep.hh"
#include "workloads/spmv.hh"

using namespace ts;

namespace
{

driver::RunOptions gOpt;

double
runConfig(const char* label, const driver::ConfigVariant& config)
{
    SpmvParams params;
    params.rows = 512;
    params.cols = 1024;
    SpmvWorkload wl(params);

    const driver::RunResult r = driver::runOne(gOpt, wl, config);
    std::printf("  %-28s %9.0f cycles  imbalance %.2f  "
                "dram lines %7.0f  %s\n",
                label, r.cycles, r.stats.get("delta.imbalance"),
                r.stats.get("mem.linesRead"),
                r.correct ? "ok" : "WRONG");
    return r.cycles;
}

} // namespace

int
main(int argc, char** argv)
{
    gOpt = driver::parseCommandLineOrExit(argc, argv);
    std::printf("SpMV over a 512x1024 CSR matrix with heavy-row skew, "
                "8 lanes\n\n");

    // The ablation presets (driver::sweepConfig): static, then
    // dynamic dispatch with count- and work-aware lane choice, then
    // the full TaskStream configuration.
    const double base = runConfig("static-parallel (baseline)",
                                  driver::sweepConfig("static"));
    runConfig("dynamic, count-balanced", driver::sweepConfig("dyn"));
    runConfig("dynamic, work-aware", driver::sweepConfig("work"));
    const double full = runConfig("delta (work-aware + multicast)",
                                  driver::sweepConfig("delta"));

    std::printf("\n  speedup over static-parallel: %.2fx\n",
                base / full);
    return 0;
}
