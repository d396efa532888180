/**
 * @file
 * Fig-2: mechanism ablation.  Starting from the bulk-synchronous
 * static-parallel baseline, enable TaskStream's recovered structures
 * one at a time:
 *
 *   static     bulk-synchronous, owner-compute (the baseline)
 *   +dyn       dependence-driven dispatch, count-balanced lanes
 *   +work      work-aware lane choice (stream-annotation estimates)
 *   +pipe      pipelined inter-task dependence recovery
 *   +mcast     shared-read multicast recovery (= full Delta)
 *
 * Rows are per-workload speedups over the static baseline.  The
 * workloads x ablation-ladder grid runs on the sweep engine's host
 * thread pool (-j N).
 */

#include <cstdio>

#include "bench_util.hh"

namespace
{

using namespace ts;
using namespace ts::bench;

/** Sweep preset name -> table column header. */
constexpr std::pair<const char*, const char*> kSteps[] = {
    {"static", "static"}, {"dyn", "+dyn"},     {"work", "+work"},
    {"pipe", "+pipe"},    {"delta", "+mcast"},
};

void
printTable(const driver::SweepReport& report)
{
    std::puts("");
    std::puts("Fig-2  Mechanism ablation: speedup over static-parallel "
              "as structures are recovered (8 lanes)");
    rule();
    std::printf("%-10s", "workload");
    for (const auto& [cfg, header] : kSteps)
        std::printf(" %8s", header);
    std::puts("");
    rule();
    std::vector<std::vector<double>> cols(std::size(kSteps));
    for (const Wk w : report.spec.workloads) {
        const driver::RunOutcome& base = outcome(report, w, "static");
        if (!base.ok())
            continue;
        std::printf("%-10s", wkName(w));
        for (std::size_t i = 0; i < std::size(kSteps); ++i) {
            const driver::RunOutcome& r =
                outcome(report, w, kSteps[i].first);
            const double sp = r.ok() && r.cycles > 0
                                  ? base.cycles / r.cycles
                                  : 0.0;
            cols[i].push_back(sp);
            std::printf(" %7.2fx", sp);
        }
        std::puts("");
    }
    rule();
    std::printf("%-10s", "geomean");
    for (const auto& col : cols)
        std::printf(" %7.2fx", geomean(col));
    std::puts("");
    std::puts("expected shape: each mechanism contributes where its "
              "structure exists: dynamic dispatch on DAGs, pipe on "
              "msort, mcast on shared-read workloads; with shallow "
              "task queues, count-based dispatch already captures "
              "most of the balancing win (see EXPERIMENTS.md)");
}

} // namespace

int
main(int argc, char** argv)
{
    return sweepFigure(
        "fig_ablation", argc, argv, allWorkloads(),
        driver::sweepConfigsFromList("static,dyn,work,pipe,delta"),
        printTable);
}
