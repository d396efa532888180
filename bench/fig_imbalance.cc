/**
 * @file
 * Fig-6: load balance.  Per-lane busy-cycle distribution under each
 * scheduling policy for the skew-heavy workloads; imbalance is
 * max/mean lane busy time (1.0 = perfect).  The last series adds NoC
 * work stealing on top of work-aware placement — what dispatch-time
 * estimates get wrong, run-time stealing claws back.
 *
 * The series are the ablation presets with pipelining and multicast
 * off, isolating the balancing effect: static, dyn, work and
 * work-steal.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"

namespace
{

using namespace ts;
using namespace ts::bench;

/** Sweep preset name -> table label. */
constexpr std::pair<const char*, const char*> kSeries[] = {
    {"static", "static"},
    {"dyn", "dyn-count"},
    {"work", "work-aware"},
    {"work-steal", "work+steal"},
};

void
printTable(const driver::SweepReport& report)
{
    std::puts("");
    std::puts("Fig-6  Per-lane busy cycles by policy (8 lanes; "
              "pipeline/multicast off to isolate balancing)");
    rule(84);
    std::printf("%-10s %-11s %10s %10s %10s %9s %7s %12s\n",
                "workload", "policy", "min", "mean", "max", "imbal",
                "stolen", "cycles");
    rule(84);
    for (const Wk w : report.spec.workloads) {
        for (const auto& [config, label] : kSeries) {
            const driver::RunOutcome& r = outcome(report, w, config);
            if (!r.ok())
                continue;
            const StatSet& s = r.stats;
            const double maxBusy = s.get("delta.busyMax");
            double minBusy = maxBusy;
            for (unsigned l = 0; l < r.point.lanes; ++l)
                minBusy = std::min(
                    minBusy, s.get("lane" + std::to_string(l) +
                                   ".tu.busyCycles"));
            std::printf("%-10s %-11s %10.0f %10.0f %10.0f %8.2fx "
                        "%7.0f %12.0f\n",
                        wkName(w), label, minBusy,
                        s.get("delta.busyMean"), maxBusy,
                        s.get("delta.imbalance"),
                        s.getOr("delta.attrib.steal.tasksStolen", 0.0),
                        r.cycles);
        }
    }
    rule(84);
    std::puts("expected shape: dynamic policies push imbalance "
              "toward 1.0x where static leaves lanes idle; stealing "
              "corrects the residual skew work estimates miss; on "
              "bandwidth-bound workloads (spmv) busy-cycle balance "
              "is set by DRAM sharing, not placement");
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<driver::ConfigVariant> configs;
    for (const auto& [config, label] : kSeries)
        configs.push_back(driver::sweepConfig(config));
    return sweepFigure("fig_imbalance", argc, argv,
                       {Wk::Spmv, Wk::Join, Wk::Tricount}, configs,
                       printTable);
}
