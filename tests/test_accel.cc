/**
 * @file
 * Accelerator-level tests: determinism, configuration validation,
 * statistics contracts, the area model, and a property sweep showing
 * functional correctness is independent of the hardware configuration
 * (lanes, queue depths, policies, feature flags).
 */

#include <gtest/gtest.h>

#include "accel/area_model.hh"
#include "accel/delta.hh"
#include "accel/energy_model.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace ts
{
namespace
{

double
runSpmvCycles(const DeltaConfig& cfg, std::uint64_t seed = 7)
{
    SuiteParams sp;
    sp.scale = 0.25;
    sp.seed = seed;
    auto wl = makeWorkload(Wk::Spmv, sp);
    Delta delta(cfg);
    TaskGraph g;
    wl->build(delta, g);
    const StatSet stats = delta.run(g);
    EXPECT_TRUE(wl->check(delta.image()));
    return stats.get("delta.cycles");
}

/** Records line completions in arrival order. */
struct RecordingSink : LineSink
{
    std::vector<std::pair<Addr, std::uint64_t>> got;

    void
    lineArrived(Addr lineAddr, std::uint64_t cookie) override
    {
        got.emplace_back(lineAddr, cookie);
    }
};

TEST(Lane, MshrTableBoundsAndReusesSlots)
{
    // 2x2 mesh: node 0 unused, lane at 1, memory at 2.  Roomy links
    // so only the MSHR table can refuse a request.
    Simulator sim;
    // Requests come from the test body, not from a tick, so a
    // quiescent fast-forwarding simulator would skip their commit.
    sim.setFastForward(false);
    Noc noc(sim, NocConfig{2, 2, 16, 2});
    MemImage img;
    LaneConfig lcfg;
    lcfg.maxOutstandingLines = 3;
    TaskTypeRegistry registry(lcfg.fabric.geom);
    MemNode mem(sim, noc, 2, MainMemoryConfig{});
    Lane lane(sim, noc, img, registry, 0, 1, 0, 2, lcfg);

    RecordingSink sink;
    for (std::uint64_t i = 0; i < 3; ++i)
        EXPECT_TRUE(lane.requestLine(i * lineBytes, sink, 10 + i));
    EXPECT_FALSE(lane.requestLine(3 * lineBytes, sink, 13))
        << "request N+1 must find the table full";

    sim.step(500);
    ASSERT_EQ(sink.got.size(), 3u);
    for (const auto& [line, cookie] : sink.got)
        EXPECT_EQ(line, (cookie - 10) * lineBytes) << "cookie echoed";

    // Responses freed every slot: a full table's worth fits again.
    for (std::uint64_t i = 0; i < 3; ++i)
        EXPECT_TRUE(lane.requestLine((8 + i) * lineBytes, sink, 20 + i));
    EXPECT_FALSE(lane.requestLine(11 * lineBytes, sink, 23));
    sim.step(500);
    ASSERT_EQ(sink.got.size(), 6u);
    for (std::size_t i = 3; i < 6; ++i)
        EXPECT_EQ(sink.got[i].first, (sink.got[i].second - 12) * lineBytes);
}

TEST(Delta, DeterministicCycleCounts)
{
    const double a = runSpmvCycles(DeltaConfig::delta(4));
    const double b = runSpmvCycles(DeltaConfig::delta(4));
    EXPECT_EQ(a, b) << "same seed and config must be cycle-identical";
}

TEST(Delta, DifferentSeedsChangeTheWorkload)
{
    const double a = runSpmvCycles(DeltaConfig::delta(4), 7);
    const double b = runSpmvCycles(DeltaConfig::delta(4), 8);
    EXPECT_NE(a, b);
}

TEST(Delta, RejectsBadLaneCounts)
{
    EXPECT_THROW(Delta(DeltaConfig::delta(0)), FatalError);
    EXPECT_THROW(Delta(DeltaConfig::delta(63)), FatalError);
}

TEST(Delta, OneRunPerInstance)
{
    Delta delta(DeltaConfig::delta(2));
    auto dfg = std::make_unique<Dfg>("id");
    const auto x = dfg->addInput();
    dfg->addOutput(dfg->add(Op::Add, Operand::ref(x),
                            Operand::immI(0)));
    const auto ty = delta.registry().addDfgType("id", std::move(dfg));
    MemImage& img = delta.image();
    TaskGraph g;
    WriteDesc out;
    out.base = img.allocWords(8);
    g.addTask(ty, {StreamDesc::linear(Space::Dram, img.allocWords(8),
                                      8)},
              {out});
    delta.run(g);
    EXPECT_THROW(delta.run(g), PanicError);
}

TEST(Delta, StatsContractHoldsAfterRun)
{
    SuiteParams sp;
    sp.scale = 0.25;
    auto wl = makeWorkload(Wk::Join, sp);
    Delta delta(DeltaConfig::delta(4));
    TaskGraph g;
    wl->build(delta, g);
    const StatSet stats = delta.run(g);
    for (const char* key :
         {"delta.cycles", "delta.busyMax", "delta.busyMean",
          "delta.imbalance", "mem.linesRead", "mem.linesWritten",
          "noc.wordHops", "noc.delivered", "sim.cycles",
          "dispatcher.tasksCompleted"}) {
        EXPECT_TRUE(stats.has(key)) << key;
    }
    EXPECT_GE(stats.get("delta.imbalance"), 1.0);
    EXPECT_GE(stats.get("delta.busyMax"),
              stats.get("delta.busyMean"));
    EXPECT_EQ(stats.get("sim.cycles"), stats.get("delta.cycles"));
}

TEST(Delta, DeadlineFatalsWithDiagnosis)
{
    SuiteParams sp;
    sp.scale = 0.5;
    auto wl = makeWorkload(Wk::Msort, sp);
    DeltaConfig cfg = DeltaConfig::delta(2);
    cfg.maxCycles = 50; // far too tight
    Delta delta(cfg);
    TaskGraph g;
    wl->build(delta, g);
    EXPECT_THROW(delta.run(g), FatalError);
}

TEST(AreaModel, AdditionsAreSmallSingleDigitPercent)
{
    const AreaReport rep = computeArea(DeltaConfig::delta(8));
    EXPECT_GT(rep.total(), 0.0);
    EXPECT_GT(rep.additions(), 0.0);
    EXPECT_LT(rep.overheadPercent(), 10.0)
        << "TaskStream structures must be a small fraction";
    EXPECT_GT(rep.overheadPercent(), 0.5)
        << "the additions are real hardware, not free";
}

TEST(AreaModel, AdditionsScaleWithLanes)
{
    const AreaReport r8 = computeArea(DeltaConfig::delta(8));
    const AreaReport r16 = computeArea(DeltaConfig::delta(16));
    EXPECT_GT(r16.total(), r8.total());
    EXPECT_GT(r16.additions(), r8.additions());
    // Overhead ratio stays in the same ballpark.
    EXPECT_NEAR(r16.overheadPercent(), r8.overheadPercent(), 3.0);
}

TEST(EnergyModel, BreaksDownARunAndIsPositive)
{
    SuiteParams sp;
    sp.scale = 0.25;
    auto wl = makeWorkload(Wk::Spmv, sp);
    Delta delta(DeltaConfig::delta(4));
    TaskGraph g;
    wl->build(delta, g);
    const StatSet stats = delta.run(g);
    const EnergyReport rep = computeEnergy(stats, 4);
    ASSERT_FALSE(rep.entries.empty());
    EXPECT_GT(rep.totalNanojoules(), 0.0);
    for (const auto& e : rep.entries)
        EXPECT_GE(e.nanojoules, 0.0) << e.name;
    // DRAM should dominate a memory-bound run.
    double dram = 0;
    for (const auto& e : rep.entries) {
        if (e.name.find("DRAM") != std::string::npos)
            dram = e.nanojoules;
    }
    EXPECT_GT(dram, 0.2 * rep.totalNanojoules());
}

TEST(EnergyModel, MulticastReducesModeledEnergy)
{
    double nj[2];
    int i = 0;
    for (const bool mcast : {false, true}) {
        SuiteParams sp;
        sp.scale = 0.5;
        auto wl = makeWorkload(Wk::Centroid, sp);
        DeltaConfig cfg = DeltaConfig::delta(4);
        cfg.enableMulticast = mcast;
        Delta delta(cfg);
        TaskGraph g;
        wl->build(delta, g);
        const StatSet stats = delta.run(g);
        EXPECT_TRUE(wl->check(delta.image()));
        nj[i++] = computeEnergy(stats, 4).totalNanojoules();
    }
    EXPECT_LT(nj[1], nj[0]);
}

TEST(Workloads, FactoryCoversTheWholeSuite)
{
    SuiteParams sp;
    for (const Wk w : allWorkloads()) {
        auto wl = makeWorkload(w, sp);
        ASSERT_NE(wl, nullptr);
        EXPECT_EQ(wl->name(), wkName(w));
    }
    EXPECT_EQ(allWorkloads().size(), 8u);
}

/** Random-hardware-configuration property sweep: functional results
 *  never depend on the configuration. */
class RandomConfig : public ::testing::TestWithParam<int>
{};

TEST_P(RandomConfig, CorrectnessIsConfigIndependent)
{
    Rng rng(31000 + GetParam());
    DeltaConfig cfg = DeltaConfig::delta(
        static_cast<std::uint32_t>(rng.uniformInt(1, 12)));
    cfg.policy = static_cast<SchedPolicy>(rng.uniformInt(0, 2));
    cfg.enablePipeline = rng.uniform01() < 0.5;
    cfg.enableMulticast = rng.uniform01() < 0.5;
    cfg.bulkSynchronous = rng.uniform01() < 0.3;
    cfg.laneQueueCap =
        static_cast<std::uint32_t>(rng.uniformInt(1, 6));
    cfg.mem.serviceLatency =
        static_cast<Tick>(rng.uniformInt(10, 80));
    cfg.mem.issueWidth =
        static_cast<std::uint32_t>(rng.uniformInt(1, 4));
    cfg.nocLinks.linkWords =
        static_cast<std::uint32_t>(rng.uniformInt(1, 4));

    const Wk w =
        allWorkloads()[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<int>(allWorkloads().size()) - 1))];
    SuiteParams sp;
    sp.scale = 0.25;
    auto wl = makeWorkload(w, sp);
    Delta delta(cfg);
    TaskGraph g;
    wl->build(delta, g);
    delta.run(g);
    EXPECT_TRUE(wl->check(delta.image()))
        << wl->name() << " lanes=" << cfg.lanes << " policy="
        << schedPolicyName(cfg.policy) << " pipe="
        << cfg.enablePipeline << " mcast=" << cfg.enableMulticast
        << " bulk=" << cfg.bulkSynchronous
        << " cap=" << cfg.laneQueueCap;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomConfig,
                         ::testing::Range(0, 24));

} // namespace
} // namespace ts
