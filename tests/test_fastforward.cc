/**
 * @file
 * Differential tests for the activity-driven simulation core: every
 * workload, under the TaskStream config, the static-parallel
 * baseline, work stealing and spatial mapping, must produce
 * byte-identical statistics with and without fast-forwarding (the
 * `sim.host.*` wall-clock counters excluded).
 *
 * This is the enforcement arm of the bit-identity contract in
 * src/sim/simulator.hh: sleeping is only legal when the skipped ticks
 * are provably no-ops, so the naive reference mode (tick every
 * component every cycle) and the activity-driven mode must agree on
 * every architectural statistic, cycle count, and functional result.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

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
    std::uint64_t ticks = 0;
    std::uint64_t events = 0;
    bool correct = false;
};

/** Run @p wk at scale 0.25 under the sweep preset @p config. */
RunResult
runOnce(Wk wk, const std::string& config, bool noFastForward,
        Tick timelineInterval = 0)
{
    DeltaConfig cfg = driver::sweepConfig(config).cfg;
    cfg.noFastForward = noFastForward;
    cfg.timelineInterval = timelineInterval;

    SuiteParams sp;
    sp.scale = 0.25;
    sp.seed = 7;
    auto wl = makeWorkload(wk, sp);

    Delta delta(cfg);
    TaskGraph graph;
    wl->build(delta, graph);
    const StatSet stats = delta.run(graph);

    RunResult r;
    std::ostringstream os;
    stats.dumpJson(os, "sim.host.");
    r.statsJson = os.str();
    r.cycles = stats.get("sim.cycles");
    r.ticks =
        static_cast<std::uint64_t>(stats.get("sim.host.ticksExecuted"));
    r.events =
        static_cast<std::uint64_t>(stats.get("sim.host.eventsFired"));
    r.correct = wl->check(delta.image());
    return r;
}

class FastForwardDifferential
    : public ::testing::TestWithParam<std::tuple<Wk, std::string>>
{
};

TEST_P(FastForwardDifferential, BitIdenticalToNaiveTicking)
{
    const Wk wk = std::get<0>(GetParam());
    const std::string& config = std::get<1>(GetParam());

    const RunResult fast = runOnce(wk, config, false);
    const RunResult naive = runOnce(wk, config, true);

    EXPECT_TRUE(fast.correct);
    EXPECT_TRUE(naive.correct);
    EXPECT_EQ(fast.cycles, naive.cycles);
    EXPECT_EQ(fast.statsJson, naive.statsJson)
        << "activity-driven and naive runs diverged for "
        << wkName(wk) << " (" << config
        << "): a component slept through a cycle that was not a "
           "no-op, or a wake source is missing";
    EXPECT_LT(fast.ticks, naive.ticks)
        << "the activity-driven core should actually skip ticks";
}

/** `<workload>_<preset>`, with the preset's dashes as underscores. */
std::string
diffName(const ::testing::TestParamInfo<std::tuple<Wk, std::string>>& info)
{
    std::string config = std::get<1>(info.param);
    std::replace(config.begin(), config.end(), '-', '_');
    return wkIdent(std::get<0>(info.param)) + "_" + config;
}

// delta and static cover pipelines, multicast and the bulk-synchronous
// barrier; work-steal adds steals and spawns, and spatial adds pinned
// lanes, so every way the dispatcher goes to sleep is covered.
INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, FastForwardDifferential,
    ::testing::Combine(::testing::ValuesIn(allWorkloads()),
                       ::testing::Values("delta", "static",
                                         "work-steal", "spatial")),
    diffName);

/**
 * The same contract with timeline sampling enabled: the sampler's
 * weak events must neither perturb the simulation (the skipped-ticks
 * proof still holds around catchUpAll) nor themselves observe
 * different values in the two execution modes.  The timeline columns
 * are part of the byte-compared dump, so any divergence shows up as
 * a stats mismatch.
 */
class TimelineDifferential
    : public ::testing::TestWithParam<std::tuple<Wk, std::string>>
{
};

TEST_P(TimelineDifferential, SampledRunsBitIdenticalToNaiveTicking)
{
    const Wk wk = std::get<0>(GetParam());
    const std::string& config = std::get<1>(GetParam());

    const RunResult fast = runOnce(wk, config, false, 300);
    const RunResult naive = runOnce(wk, config, true, 300);

    EXPECT_TRUE(fast.correct);
    EXPECT_TRUE(naive.correct);
    EXPECT_NE(fast.statsJson.find("delta.timeline.samples"),
              std::string::npos)
        << "the sampled run must emit timeline columns";
    EXPECT_EQ(fast.statsJson, naive.statsJson)
        << "timeline columns diverged between activity-driven and "
           "naive runs for "
        << wkName(wk) << " (" << config
        << "): a sampler fired at a different simulated time or "
           "observed un-caught-up counters";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TimelineDifferential,
    ::testing::Combine(::testing::ValuesIn(allWorkloads()),
                       ::testing::Values("delta", "static")),
    diffName);

/**
 * Exact ratchet on host work: the lane units' sleep rules (DESIGN.md
 * §6) cut the ticks the static-baseline memory-stream runs execute.
 * Tick counts are deterministic, so each bound is the exact count:
 * a change that keeps a lane unit awake longer fails here, and one
 * that cuts ticks further lowers the bound in the same change.
 * Before the write engines, fabric, read engines (on a full port) and
 * task units slept through stalls, these runs ticked spmv 24,832,
 * tricount 73,631 and centroid 110,962 times; before the back-pressure
 * sleeps (BuiltinKernelsTickNoMoreThanPinned below), 12,236, 30,109
 * and 70,925 times.
 */
TEST(TickRatchet, StaticStreamRunsTickNoMoreThanPinned)
{
    const std::pair<Wk, std::uint64_t> pinned[] = {
        {Wk::Spmv, 11803}, {Wk::Tricount, 29216}, {Wk::Centroid, 70475}};
    for (const auto& [wk, maxTicks] : pinned) {
        const RunResult r = runOnce(wk, "static", false);
        EXPECT_TRUE(r.correct) << wkName(wk);
        EXPECT_LE(r.ticks, maxTicks)
            << wkName(wk) << " x static: a lane unit ticks through "
               "cycles it used to sleep through";
    }
}

/**
 * The same ratchet on the builtin-kernel workloads, whose host work
 * was polling on back-pressure: routers behind a full link, the memory
 * node behind a full queue, one retry event per refused DRAM response
 * per cycle, read engines refused by the memory port and task units
 * staging builtin inputs or blocked writing their outputs.  Each now
 * sleeps until a slot frees (DESIGN.md §6, space wakes).  Before, lu
 * ticked 228,399 times and fired 73,588 events, and cholesky ticked
 * 131,516 times.
 */
TEST(TickRatchet, BuiltinKernelsTickNoMoreThanPinned)
{
    const RunResult lu = runOnce(Wk::Lu, "delta", false);
    EXPECT_TRUE(lu.correct);
    EXPECT_LE(lu.ticks, 105592u)
        << "lu x delta: a unit polls a full channel it used to sleep on";
    EXPECT_LE(lu.events, 6165u)
        << "lu x delta: DRAM responses retry by the event again";
    const RunResult chol = runOnce(Wk::Cholesky, "delta", false);
    EXPECT_TRUE(chol.correct);
    EXPECT_LE(chol.ticks, 66975u)
        << "cholesky x delta: a unit polls a full channel it used to "
           "sleep on";
}

/**
 * msort x delta's write engines forward pipe chunks and write lines
 * through a lane injection queue the chunks keep full; a refused
 * engine sleeps on the lane's space wake.  Before the back-pressure
 * sleeps this run ticked 58,846 times.
 */
TEST(TickRatchet, RefusedWriteEnginesTickNoMoreThanPinned)
{
    const RunResult r = runOnce(Wk::Msort, "delta", false);
    EXPECT_TRUE(r.correct);
    EXPECT_LE(r.ticks, 41319u)
        << "msort x delta: a write engine retries a refused write or "
           "chunk every cycle";
}

} // namespace
