/**
 * @file
 * Fig-3: lane-count scaling, Delta vs static-parallel, 1..16 lanes.
 *
 * One sweep: the selected workloads x {static, delta} at each lane
 * count, as named configs `static-l<N>` / `delta-l<N>`.
 *
 * Expected shape: Delta scales further before flattening because
 * dynamic balancing keeps added lanes busy; msort's pipelining gain
 * grows with lane count (a deeper merge tree fits concurrently).
 */

#include <cstdio>

#include "bench_util.hh"

namespace
{

using namespace ts;
using namespace ts::bench;

const std::vector<std::uint32_t> kLanes = {1, 2, 4, 8, 16};

std::string
lanesName(const char* base, std::uint32_t lanes)
{
    return std::string(base) + "-l" + std::to_string(lanes);
}

void
printTable(const driver::SweepReport& report)
{
    std::puts("");
    std::puts("Fig-3  Scaling with lane count: cycles (and Delta "
              "self-relative scaling)");
    for (const Wk w : report.spec.workloads) {
        rule();
        std::printf("%s\n", wkName(w));
        std::printf("  %6s %14s %14s %9s %14s\n", "lanes",
                    "static(cyc)", "delta(cyc)", "speedup",
                    "delta-scaling");
        const double delta1 =
            outcome(report, w, lanesName("delta", 1)).cycles;
        for (const auto lanes : kLanes) {
            const double st =
                outcome(report, w, lanesName("static", lanes)).cycles;
            const double dy =
                outcome(report, w, lanesName("delta", lanes)).cycles;
            std::printf("  %6u %14.0f %14.0f %8.2fx %13.2fx\n", lanes,
                        st, dy, st / dy, delta1 / dy);
        }
    }
    rule();
    std::puts("expected shape: Delta's advantage grows with lanes on "
              "skewed workloads; msort pipelining needs enough lanes "
              "to co-host the merge tree");
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<driver::ConfigVariant> configs;
    for (const auto lanes : kLanes) {
        configs.push_back({lanesName("static", lanes),
                           DeltaConfig::staticBaseline(lanes)});
        configs.push_back(
            {lanesName("delta", lanes), DeltaConfig::delta(lanes)});
    }
    return sweepFigure("fig_scalability", argc, argv,
                       {Wk::Spmv, Wk::Join, Wk::Msort, Wk::Tricount},
                       configs, printTable);
}
