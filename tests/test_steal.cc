/**
 * @file
 * NoC work-stealing tests (DESIGN.md §7): the steal protocol must be
 * a pure re-placement mechanism — it changes which lane runs a task,
 * never what the run computes — and it must be bit-identical across
 * every execution mode the simulator supports.
 *
 * For each steal policy on skewed workloads this byte-compares the
 * full stats dump (minus sim.host.*) between the reference run and:
 *   - naive per-cycle ticking (--no-fast-forward),
 *   - sweep runs executed back to back on one worker.
 * Any divergence means a probe slept through a cycle it needed, or
 * steal protocol state outlived the Delta that owned it.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "accel/delta.hh"
#include "driver/sweep.hh"
#include "workloads/workload.hh"

using namespace ts;

namespace
{

struct RunResult
{
    std::string statsJson; ///< full dump minus sim.host.*
    double cycles = 0.0;
    bool correct = false;
    double stealRequests = 0.0;
    double tasksStolen = 0.0;
};

DeltaConfig
stealConfig(StealPolicy steal)
{
    DeltaConfig cfg = DeltaConfig::delta();
    cfg.steal = steal;
    return cfg;
}

RunResult
resultOf(Delta& delta, Wk wk, std::uint64_t seed = 7)
{
    SuiteParams sp;
    sp.scale = 0.25;
    sp.seed = seed;
    auto wl = makeWorkload(wk, sp);

    TaskGraph graph;
    wl->build(delta, graph);
    const StatSet stats = delta.run(graph);

    RunResult r;
    std::ostringstream os;
    stats.dumpJson(os, "sim.host.");
    r.statsJson = os.str();
    r.cycles = stats.get("sim.cycles");
    r.correct = wl->check(delta.image());
    r.stealRequests = stats.getOr("delta.attrib.steal.requests", 0.0);
    r.tasksStolen =
        stats.getOr("delta.attrib.steal.tasksStolen", 0.0);
    return r;
}

RunResult
runOnce(Wk wk, StealPolicy steal, bool noFastForward)
{
    DeltaConfig cfg = stealConfig(steal);
    cfg.noFastForward = noFastForward;
    Delta delta(cfg);
    return resultOf(delta, wk);
}

class StealDifferential
    : public ::testing::TestWithParam<std::tuple<Wk, StealPolicy>>
{
};

std::string
stealName(
    const ::testing::TestParamInfo<std::tuple<Wk, StealPolicy>>& info)
{
    std::string name = wkIdent(std::get<0>(info.param));
    switch (std::get<1>(info.param)) {
      case StealPolicy::None: name += "_none"; break;
      case StealPolicy::StealOne: name += "_one"; break;
      case StealPolicy::StealHalf: name += "_half"; break;
    }
    return name;
}

} // namespace

TEST_P(StealDifferential, BitIdenticalAcrossExecutionModes)
{
    const Wk wk = std::get<0>(GetParam());
    const StealPolicy steal = std::get<1>(GetParam());

    const RunResult one = runOnce(wk, steal, false);
    ASSERT_TRUE(one.correct);
    if (steal != StealPolicy::None) {
        EXPECT_GT(one.stealRequests, 0.0)
            << "idle lanes never probed: the steal machine is inert";
    }

    const RunResult naive = runOnce(wk, steal, true);
    EXPECT_TRUE(naive.correct);
    EXPECT_EQ(naive.statsJson, one.statsJson)
        << "activity-driven and naive steal runs diverged for "
        << wkName(wk)
        << ": a probe or grant slept through a non-no-op cycle";
}

TEST_P(StealDifferential, ForkedRunsBitIdenticalToFresh)
{
    const Wk wk = std::get<0>(GetParam());
    const StealPolicy steal = std::get<1>(GetParam());

    // Two seeds on one worker: the second run follows the first, as
    // the later points of every sweep worker do.
    driver::SweepSpec spec;
    spec.workloads = {wk};
    spec.configs = {{"steal", stealConfig(steal)}};
    spec.seeds = {7, 11};
    spec.scales = {0.25};
    spec.jobs = 1;
    const driver::SweepReport report = driver::Sweep(spec).run();

    ASSERT_EQ(report.runs.size(), 2u);
    for (const driver::RunOutcome& out : report.runs) {
        ASSERT_TRUE(out.ok()) << out.point.tag() << ": " << out.error;
        Delta fresh(stealConfig(steal));
        const RunResult r = resultOf(fresh, wk, out.point.seed);
        EXPECT_TRUE(r.correct);
        std::ostringstream os;
        out.stats.dumpJson(os, "sim.host.");
        EXPECT_EQ(os.str(), r.statsJson)
            << out.point.tag() << ": sweep steal run diverged from a "
            << "fresh Delta for " << wkName(wk)
            << ": steal protocol state outlived its run";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Skewed, StealDifferential,
    ::testing::Combine(::testing::Values(Wk::Tricount, Wk::Join,
                                         Wk::MsortDyn),
                       ::testing::Values(StealPolicy::None,
                                         StealPolicy::StealOne,
                                         StealPolicy::StealHalf)),
    stealName);

// ---------------------------------------------------------------------
// Policy accounting and cache-key coverage.
// ---------------------------------------------------------------------

TEST(Steal, StealingActuallyMovesTasksOnSkewedWork)
{
    const RunResult r =
        runOnce(Wk::Tricount, StealPolicy::StealHalf, false);
    ASSERT_TRUE(r.correct);
    EXPECT_GT(r.tasksStolen, 0.0)
        << "steal-half on tricount should relocate at least one task";
}

// The dispatcher counts the tasks that moved; each task unit counts
// both sides of every probe under its lane and adds its probes into
// the run-wide delta.attrib.steal keys.  Every protocol message has a
// sender and a receiver, so the counts must agree.
TEST(StealAttribution, ProtocolCountersBalance)
{
    for (const Wk wk : {Wk::Lu, Wk::Cholesky, Wk::Tricount}) {
        for (const StealPolicy steal :
             {StealPolicy::StealHalf, StealPolicy::StealOne}) {
            SCOPED_TRACE(std::string(wkName(wk)) + " " +
                         stealPolicyName(steal));
            SuiteParams sp;
            sp.scale = 0.25;
            sp.seed = 7;
            auto wl = makeWorkload(wk, sp);
            Delta delta(stealConfig(steal));
            TaskGraph graph;
            wl->build(delta, graph);
            const StatSet stats = delta.run(graph);
            ASSERT_TRUE(wl->check(delta.image()));

            double stolenIn = 0, givenOut = 0, sent = 0, received = 0,
                   grants = 0, denies = 0;
            for (std::uint32_t i = 0; i < delta.numLanes(); ++i) {
                const std::string tu =
                    "lane" + std::to_string(i) + ".tu.steal.";
                stolenIn += stats.get(tu + "tasksStolenIn");
                givenOut += stats.get(tu + "tasksGivenOut");
                sent += stats.get(tu + "requestsSent");
                received += stats.get(tu + "requestsReceived");
                grants += stats.get(tu + "grantsReceived");
                denies += stats.get(tu + "deniesReceived");
            }
            const double stolen =
                stats.get("delta.attrib.steal.tasksStolen");
            EXPECT_EQ(stolen, stolenIn);
            EXPECT_EQ(stolen, givenOut);
            EXPECT_GT(sent, 0.0) << "idle lanes never probed";
            EXPECT_EQ(sent, received);
            EXPECT_EQ(received, grants + denies);
            EXPECT_EQ(stats.get("delta.attrib.steal.requests"), sent);
            EXPECT_EQ(stats.get("delta.attrib.steal.grants"), grants);
            EXPECT_EQ(stats.get("delta.attrib.steal.denies"), denies);
        }
    }
}

TEST(Steal, PolicyChangesTheCanonicalConfig)
{
    const std::string none =
        driver::canonicalConfig(stealConfig(StealPolicy::None));
    const std::string one =
        driver::canonicalConfig(stealConfig(StealPolicy::StealOne));
    const std::string half =
        driver::canonicalConfig(stealConfig(StealPolicy::StealHalf));
    EXPECT_NE(none, one);
    EXPECT_NE(none, half);
    EXPECT_NE(one, half);
}

TEST(Steal, PolicyNamesRoundTrip)
{
    for (const StealPolicy p :
         {StealPolicy::None, StealPolicy::StealOne,
          StealPolicy::StealHalf}) {
        StealPolicy back = StealPolicy::None;
        ASSERT_TRUE(stealPolicyFromName(stealPolicyName(p), back));
        EXPECT_EQ(back, p);
    }
    StealPolicy out = StealPolicy::None;
    EXPECT_FALSE(stealPolicyFromName("bogus", out));
}
