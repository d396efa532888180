/**
 * @file
 * Workload-suite integration tests: every workload must produce
 * golden-correct results on TaskStream/Delta, on the static-parallel
 * baseline, and on the intermediate policies, at several lane counts.
 */

#include <gtest/gtest.h>

#include "workloads/workload.hh"

namespace ts
{
namespace
{

struct Case
{
    Wk wk;
    bool delta; ///< TaskStream config vs static baseline
};

class WorkloadCorrectness
    : public ::testing::TestWithParam<Case>
{};

TEST_P(WorkloadCorrectness, GoldenMatch)
{
    const Case c = GetParam();
    SuiteParams sp;
    sp.scale = 0.5;
    auto wl = makeWorkload(c.wk, sp);

    DeltaConfig cfg = c.delta ? DeltaConfig::delta(8)
                              : DeltaConfig::staticBaseline(8);
    Delta delta(cfg);
    TaskGraph graph;
    wl->build(delta, graph);
    const StatSet stats = delta.run(graph);

    EXPECT_TRUE(wl->check(delta.image())) << wl->name();
    EXPECT_GT(stats.get("delta.cycles"), 0);
    // Dynamic-spawn workloads grow the task set beyond what the host
    // submitted; completed must equal submitted plus spawned.
    EXPECT_EQ(stats.get("dispatcher.tasksCompleted"),
              static_cast<double>(graph.numTasks()) +
                  stats.get("delta.tasksSpawned"));
}

std::string
caseName(const ::testing::TestParamInfo<Case>& info)
{
    return wkIdent(info.param.wk) +
           (info.param.delta ? "_delta" : "_static");
}

std::vector<Case>
allCases()
{
    // GoogleTest prints each parameter's raw bytes into the test
    // listing, so the padding after `delta` must be zeroed: `{w, d}`
    // leaves it indeterminate and the test names would vary per run.
    std::vector<Case> cases;
    for (const Wk w : allWorkloads()) {
        for (const bool d : {true, false}) {
            Case c{};
            c.wk = w;
            c.delta = d;
            cases.push_back(c);
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkloadCorrectness,
                         ::testing::ValuesIn(allCases()), caseName);

/** Lane-count sweep: correctness must hold at any width. */
class WorkloadLanes : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(WorkloadLanes, SpmvAndMsortCorrectAtAnyWidth)
{
    const std::uint32_t lanes = GetParam();
    for (const Wk w : {Wk::Spmv, Wk::Msort, Wk::Tricount}) {
        SuiteParams sp;
        sp.scale = 0.25;
        auto wl = makeWorkload(w, sp);
        Delta delta(DeltaConfig::delta(lanes));
        TaskGraph graph;
        wl->build(delta, graph);
        delta.run(graph);
        EXPECT_TRUE(wl->check(delta.image()))
            << wl->name() << " lanes=" << lanes;
    }
}

INSTANTIATE_TEST_SUITE_P(Lanes, WorkloadLanes,
                         ::testing::Values(1, 2, 3, 4, 8, 12, 16));

} // namespace
} // namespace ts
