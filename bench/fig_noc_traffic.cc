/**
 * @file
 * Fig-5: traffic effect of shared-read multicast recovery.
 *
 * For the shared-read workloads, compare DRAM lines read and NoC
 * word-hops with multicast recovery off (the `pipe` preset) and on
 * (`delta`), every other mechanism held at the Delta configuration.
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
    std::puts("Fig-5  Shared-read multicast: DRAM reads and NoC "
              "traffic (8 lanes; pipeline+work-aware held on)");
    rule(78);
    std::printf("%-10s %12s %12s %7s %12s %12s %7s\n", "workload",
                "dram w/o", "dram w/", "ratio", "hops w/o", "hops w/",
                "ratio");
    rule(78);
    for (const Wk w : report.spec.workloads) {
        const driver::RunOutcome& off = outcome(report, w, "pipe");
        const driver::RunOutcome& on = outcome(report, w, "delta");
        if (!off.ok() || !on.ok())
            continue;
        const double dramOff = off.stats.get("mem.linesRead");
        const double dramOn = on.stats.get("mem.linesRead");
        const double hopsOff = off.stats.get("noc.wordHops");
        const double hopsOn = on.stats.get("noc.wordHops");
        std::printf("%-10s %12.0f %12.0f %6.2fx %12.0f %12.0f %6.2fx\n",
                    wkName(w), dramOff, dramOn, dramOff / dramOn,
                    hopsOff, hopsOn, hopsOff / hopsOn);
    }
    rule(78);
    std::puts("expected shape: one multicast fill replaces per-task "
              "fetches, cutting DRAM reads by roughly the sharing "
              "degree on shared-heavy workloads");
}

} // namespace

int
main(int argc, char** argv)
{
    return sweepFigure("fig_noc_traffic", argc, argv,
                       {Wk::Spmv, Wk::Join, Wk::Tricount, Wk::Centroid},
                       driver::sweepConfigsFromList("pipe,delta"),
                       printTable);
}
