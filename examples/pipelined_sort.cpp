/**
 * @file
 * Pipelined-sort scenario: a merge-sort task tree whose edges are
 * annotated as Pipeline dependences.  Shows how Delta recovers the
 * destroyed producer-consumer structure — co-dispatching whole tree
 * regions and forwarding merged runs between lanes — and reports the
 * pipe statistics that make the recovery visible.
 *
 *   $ ./build/examples/pipelined_sort
 */

#include <cstdio>

#include "driver/run_one.hh"
#include "workloads/msort.hh"

using namespace ts;

namespace
{

driver::RunOptions gOpt;

void
runConfig(const char* label, bool enablePipeline,
          std::uint32_t lanes)
{
    MsortParams params;
    params.n = 16384;
    params.leafSize = 1024;
    MsortWorkload wl(params);

    driver::RunSpec spec;
    spec.cfg = DeltaConfig::delta(lanes);
    spec.cfg.enablePipeline = enablePipeline;
    spec.workload = "pipelined_sort";
    spec.config = enablePipeline ? "pipelined" : "roundtrip";
    spec.build = [&](Delta& d, TaskGraph& g) { wl.build(d, g); };
    spec.check = [&](Delta& d) { return wl.check(d.image()); };
    const driver::RunResult r = driver::runOne(gOpt, spec);
    const double activated =
        r.stats.get("delta.attrib.pipeline.pipesActivated");
    const double degraded =
        r.stats.get("delta.attrib.pipeline.pipesDegraded");

    double pipeTokens = 0;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        pipeTokens += r.stats.getOr(
            "lane" + std::to_string(l) + ".pipeTokens", 0);
    }
    std::printf("  %-26s %9.0f cycles   pipes %2.0f/%.0f activated   "
                "%8.0f tokens forwarded   %s\n",
                label, r.cycles, activated, activated + degraded,
                pipeTokens, r.correct ? "ok" : "WRONG");
}

} // namespace

int
main(int argc, char** argv)
{
    gOpt = driver::parseCommandLineOrExit(argc, argv);
    std::printf("Merge sort of 16384 keys (16 leaves + 15 pipelined "
                "merge tasks)\n\n");
    runConfig("memory round trips, 8 ln", false, 8);
    runConfig("pipelined,          8 ln", true, 8);
    runConfig("memory round trips, 16 ln", false, 16);
    runConfig("pipelined,          16 ln", true, 16);
    std::printf("\nLeaf-to-merge edges degrade by design (coarse "
                "sorter kernels cannot forward);\nmerge-to-merge "
                "edges activate and the tree executes as one "
                "dataflow pipeline.\n");
    return 0;
}
