/**
 * @file
 * Tab-3: analytical area of the TaskStream additions relative to the
 * equivalent static-parallel design (see DESIGN.md for the RTL
 * substitution note), next to the pipe-buffer occupancy each lane
 * actually reached on the selected workloads (default: msort, the
 * pipe-heaviest) at the scale the binary ran.
 */

#include <algorithm>
#include <cstdio>

#include "accel/area_model.hh"
#include "bench_util.hh"

namespace
{

using namespace ts;
using namespace ts::bench;

/** Pipe-buffer budget per lane in the area model. */
constexpr double kPipeBudgetKiB = 4.0;

void
printArea()
{
    const AreaReport rep = computeArea(DeltaConfig::delta(8));

    std::puts("");
    std::puts("Tab-3  Analytical area: TaskStream additions vs the "
              "static-parallel baseline (28nm-class constants)");
    rule();
    std::printf("%-44s %10s %8s\n", "structure", "mm^2", "added?");
    rule();
    for (const auto& e : rep.entries) {
        std::printf("%-44s %10.4f %8s\n", e.name.c_str(), e.mm2,
                    e.taskStreamAddition ? "yes" : "");
    }
    rule();
    std::printf("%-44s %10.4f\n", "total", rep.total());
    std::printf("%-44s %10.4f\n", "TaskStream additions",
                rep.additions());
    std::printf("%-44s %9.2f%%\n", "overhead vs baseline",
                rep.overheadPercent());
}

void
printTables(const driver::SweepReport& report)
{
    printArea();
    std::printf("\npipe-buffer high-water per lane, KiB (scale %g, "
                "seed %llu; modeled budget %.0f KiB/lane)\n",
                report.spec.scales.front(),
                static_cast<unsigned long long>(
                    report.spec.seeds.front()),
                kPipeBudgetKiB);
    for (const driver::RunOutcome& r : report.runs) {
        if (!r.ok())
            continue;
        std::printf("%-10s", wkName(r.point.workload));
        double worst = 0;
        unsigned over = 0;
        for (unsigned l = 0; l < r.point.lanes; ++l) {
            const double kib =
                r.stats.getOr("lane" + std::to_string(l) +
                                  ".pipeMaxOccupancy",
                              0) *
                wordBytes / 1024.0;
            worst = std::max(worst, kib);
            over += kib > kPipeBudgetKiB ? 1 : 0;
            std::printf(" %5.1f", kib);
        }
        std::printf("  worst %.0f words, %u/%u lanes over\n",
                    worst * 1024.0 / wordBytes, over, r.point.lanes);
    }
    std::puts("pipe buffers are unbounded in the simulator: occupancy "
              "above the budget is\nnot modeled (DESIGN.md section 4)");
    std::puts("paper claim: the TaskStream structures are a small "
              "single-digit-percent addition");
}

} // namespace

int
main(int argc, char** argv)
{
    return sweepFigure("tab_area", argc, argv, {Wk::Msort},
                       driver::sweepConfigsFromList("delta"),
                       printTables);
}
