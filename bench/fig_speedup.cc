/**
 * @file
 * Fig-1 (headline): Delta (TaskStream: work-aware balancing +
 * pipelined dependences + shared-read multicast) versus the
 * equivalent static-parallel design, per workload and geomean.
 *
 * The workloads x {static, delta} grid runs on the sweep engine's
 * host thread pool (-j N, default hardware concurrency) and the
 * table renders from the report.  Accepts every shared run option;
 * per-run StatSets land in --bench-json DIR.
 *
 * Reproduction target (from the paper's abstract): the TaskStream
 * execution model improves performance by ~2.2x over the equivalent
 * static-parallel design.
 */

#include <cstdio>

#include "bench_util.hh"

namespace
{

using namespace ts;
using namespace ts::bench;

void
printTable(const driver::SweepReport& report)
{
    std::puts("");
    std::puts("Fig-1  Delta (TaskStream) vs equivalent static-parallel "
              "design, 8 lanes");
    rule();
    std::printf("%-10s %14s %14s %9s %8s\n", "workload", "static(cyc)",
                "delta(cyc)", "speedup", "correct");
    rule();
    std::vector<double> speedups;
    for (const Wk w : report.spec.workloads) {
        const driver::RunOutcome& st = outcome(report, w, "static");
        const driver::RunOutcome& dy = outcome(report, w, "delta");
        if (st.failed || dy.failed)
            continue;
        const double sp = dy.cycles > 0 ? st.cycles / dy.cycles : 0.0;
        speedups.push_back(sp);
        std::printf("%-10s %14.0f %14.0f %8.2fx %8s\n", wkName(w),
                    st.cycles, dy.cycles, sp,
                    st.correct && dy.correct ? "yes" : "NO");
    }
    rule();
    std::printf("%-10s %14s %14s %8.2fx\n", "geomean", "", "",
                geomean(speedups));
    std::puts("paper claim (abstract): ~2.2x overall improvement");
}

} // namespace

int
main(int argc, char** argv)
{
    return sweepFigure("fig_speedup", argc, argv, allWorkloads(),
                       driver::sweepConfigsFromList("static,delta"),
                       printTable);
}
