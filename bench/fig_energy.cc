/**
 * @file
 * Fig-8 (extension): modeled energy, Delta vs static-parallel.
 *
 * The abstract's headline is performance, but structure recovery is
 * also an energy story: multicast removes DRAM fetches (the dominant
 * per-event cost) and pipelining removes memory round trips.  This
 * figure breaks modeled energy down by component for both designs.
 *
 * The workloads x {static, delta} grid runs on the sweep engine's
 * host thread pool (-j N); the energy model evaluates each run's
 * StatSet.
 */

#include <cstdio>

#include "accel/energy_model.hh"
#include "bench_util.hh"

namespace
{

using namespace ts;
using namespace ts::bench;

void
printTable(const driver::SweepReport& report)
{
    std::puts("");
    std::puts("Fig-8  Modeled energy (uJ), static vs Delta, 8 lanes");
    rule(78);
    std::printf("%-10s %12s %12s %8s   %s\n", "workload", "static(uJ)",
                "delta(uJ)", "ratio", "largest static component");
    rule(78);
    std::vector<double> ratios;
    for (const Wk w : report.spec.workloads) {
        const driver::RunOutcome& st = outcome(report, w, "static");
        const driver::RunOutcome& dy = outcome(report, w, "delta");
        if (!st.ok() || !dy.ok())
            continue;
        const EnergyReport se = computeEnergy(st.stats, 8);
        const EnergyReport de = computeEnergy(dy.stats, 8);
        const EnergyEntry* biggest = &se.entries.front();
        for (const auto& e : se.entries) {
            if (e.nanojoules > biggest->nanojoules)
                biggest = &e;
        }
        const double ratio =
            se.totalNanojoules() / de.totalNanojoules();
        ratios.push_back(ratio);
        std::printf("%-10s %12.1f %12.1f %7.2fx   %s\n", wkName(w),
                    se.totalNanojoules() / 1000.0,
                    de.totalNanojoules() / 1000.0, ratio,
                    biggest->name.c_str());
    }
    rule(78);
    std::printf("%-10s %12s %12s %7.2fx\n", "geomean", "", "",
                geomean(ratios));
    std::puts("expected shape: energy savings track the DRAM-traffic "
              "savings (Fig-5) plus shorter runtime (less static "
              "energy)");
}

} // namespace

int
main(int argc, char** argv)
{
    return sweepFigure("fig_energy", argc, argv, allWorkloads(),
                       driver::sweepConfigsFromList("static,delta"),
                       printTable);
}
