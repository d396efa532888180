/**
 * @file
 * Unit and invariant tests for the TaskStream core: graph
 * construction rules, work estimation, scheduling-policy behaviour,
 * dependence ordering (property: no task observes a stale producer
 * value), pipeline activation accounting, and multicast accounting.
 */

#include <gtest/gtest.h>

#include "accel/delta.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace ts
{
namespace
{

TaskTypeId
addScaleType(TaskTypeRegistry& reg, const std::string& name = "scale")
{
    auto dfg = std::make_unique<Dfg>(name);
    const auto x = dfg->addInput();
    const auto a = dfg->add(Op::Add, Operand::ref(x), Operand::immI(1));
    dfg->addOutput(a);
    return reg.addDfgType(name, std::move(dfg));
}

// --- task graph construction rules ---------------------------------------

TEST(TaskGraph, DependencesMustFollowCreationOrder)
{
    TaskTypeRegistry reg(FabricGeometry{});
    const auto ty = addScaleType(reg);
    TaskGraph g;
    WriteDesc out;
    out.base = 1024;
    const auto t0 = g.addTask(
        ty, {StreamDesc::linear(Space::Dram, 64, 8)}, {out});
    const auto t1 = g.addTask(
        ty, {StreamDesc::linear(Space::Dram, 64, 8)}, {out});
    g.addBarrier(t0, t1);
    EXPECT_THROW(g.addBarrier(t1, t0), PanicError);
}

TEST(TaskGraph, SharedInputMustLieInGroupRange)
{
    TaskTypeRegistry reg(FabricGeometry{});
    const auto ty = addScaleType(reg);
    TaskGraph g;
    WriteDesc out;
    out.base = 4096;
    const auto t = g.addTask(
        ty, {StreamDesc::linear(Space::Dram, 2048, 8)}, {out});
    const auto grp = g.addSharedGroup(64, 16);
    EXPECT_THROW(g.setSharedInput(t, 0, grp), PanicError);
}

TEST(TaskGraph, ValidateRejectsEmptyGroups)
{
    TaskGraph g;
    g.addSharedGroup(64, 16);
    EXPECT_THROW(g.validate(), PanicError);
}

// --- critical path on dynamic graph shapes --------------------------------
//
// The spatial mapper uses criticalPath() as its cost model, so it
// must stay correct on the shapes the dynamic-dependence machinery
// produces: transferred successors, spawned subgraphs whose edges
// point against uid order, and edges from already-completed
// producers (unmeasured tasks weigh zero).

namespace
{

TaskHandle
addPlainTask(TaskGraph& g, TaskTypeId ty, Addr outBase = 1024)
{
    WriteDesc out;
    out.base = outBase;
    return g.addTask(ty, {StreamDesc::linear(Space::Dram, 64, 8)},
                     {out});
}

TaskSpan
span(TaskId uid, Tick start, Tick end)
{
    TaskSpan s;
    s.uid = uid;
    s.start = start;
    s.end = end;
    return s;
}

} // namespace

TEST(TaskGraphCritPath, TransferredSuccessorsRehangThePath)
{
    TaskTypeRegistry reg(FabricGeometry{});
    const auto ty = addScaleType(reg);
    TaskGraph g;
    const auto a = addPlainTask(g, ty);
    const auto b = addPlainTask(g, ty);
    const auto c = addPlainTask(g, ty);
    g.addPipeline(a, 0, b, 0);
    // a finishes early and hands its pending successors to c; the
    // pipeline edge degrades to a barrier across the transfer.
    g.transferSuccessors(a, c);
    ASSERT_EQ(g.edges().size(), 1u);
    EXPECT_EQ(g.edges()[0].producer, c.id());
    EXPECT_EQ(g.edges()[0].consumer, b.id());
    EXPECT_EQ(g.edges()[0].kind, DepKind::Barrier);

    const std::vector<TaskSpan> spans = {
        span(a, 0, 10), span(b, 0, 100), span(c, 0, 5)};
    const CritPathResult r = g.criticalPath(spans);
    EXPECT_EQ(r.serialCycles, 115u);
    EXPECT_EQ(r.criticalPathCycles, 105u);
    ASSERT_EQ(r.path.size(), 2u);
    EXPECT_EQ(r.path[0], c.id());
    EXPECT_EQ(r.path[1], b.id());
}

TEST(TaskGraphCritPath, SpawnedSubgraphEdgesAgainstUidOrder)
{
    // The post-spawn shape: the join task exists before the spawned
    // children, so the children's edges into it run against uid
    // order.  criticalPath must still finalize in topological order.
    TaskTypeRegistry reg(FabricGeometry{});
    const auto ty = addScaleType(reg);
    TaskGraph g;
    const auto root = addPlainTask(g, ty);
    const auto join = addPlainTask(g, ty);
    const auto s1 = addPlainTask(g, ty);
    const auto s2 = addPlainTask(g, ty);
    g.addBarrier(root, s1);
    g.addBarrier(root, s2);
    g.addBarrier(s1, join); // producer uid > consumer uid
    g.addBarrier(s2, join);

    const std::vector<TaskSpan> spans = {
        span(root, 0, 10), span(join, 0, 7), span(s1, 0, 30),
        span(s2, 0, 50)};
    const CritPathResult r = g.criticalPath(spans);
    EXPECT_EQ(r.serialCycles, 97u);
    // root -> s2 -> join dominates: 10 + 50 + 7.
    EXPECT_EQ(r.criticalPathCycles, 67u);
    ASSERT_EQ(r.path.size(), 3u);
    EXPECT_EQ(r.path[0], root.id());
    EXPECT_EQ(r.path[1], s2.id());
    EXPECT_EQ(r.path[2], join.id());
    // The 2-lane bound is the path (67 > ceil(97/2)).
    EXPECT_EQ(r.boundCycles(2), 67u);
}

TEST(TaskGraphCritPath, EdgesFromCompletedProducersWeighZero)
{
    // Edges from producers that completed before measurement began
    // (no span recorded) are legal and contribute zero weight; the
    // path and the serial sum must only count measured tasks.
    TaskTypeRegistry reg(FabricGeometry{});
    const auto ty = addScaleType(reg);
    TaskGraph g;
    const auto done = addPlainTask(g, ty);
    const auto mid = addPlainTask(g, ty);
    const auto tail = addPlainTask(g, ty);
    g.addBarrier(done, mid);
    g.addBarrier(mid, tail);

    const std::vector<TaskSpan> spans = {span(mid, 100, 140),
                                         span(tail, 140, 200)};
    const CritPathResult r = g.criticalPath(spans);
    EXPECT_EQ(r.serialCycles, 100u);
    EXPECT_EQ(r.criticalPathCycles, 100u);
    // The unmeasured producer may or may not appear at the head of
    // the path; the measured suffix must be mid -> tail.
    ASSERT_GE(r.path.size(), 2u);
    EXPECT_EQ(r.path[r.path.size() - 2], mid.id());
    EXPECT_EQ(r.path.back(), tail.id());
}

// --- work estimation -------------------------------------------------------

TEST(TaskTypes, DefaultWorkEstimateSumsStreamElements)
{
    MemImage img;
    TaskTypeRegistry reg(FabricGeometry{});
    const auto ty = addScaleType(reg);
    TaskInstance inst;
    inst.type = ty;
    inst.inputs = {StreamDesc::linear(Space::Dram, 0, 40)};
    EXPECT_DOUBLE_EQ(reg.estimateWork(img, inst), 40.0);
}

TEST(TaskTypes, WorkFnOverride)
{
    MemImage img;
    TaskTypeRegistry reg(FabricGeometry{});
    const auto ty = addScaleType(reg);
    reg.setWorkFn(ty, [](const MemImage&, const TaskInstance&) {
        return 123.0;
    });
    TaskInstance inst;
    inst.type = ty;
    EXPECT_DOUBLE_EQ(reg.estimateWork(img, inst), 123.0);
}

// --- scheduling policies ----------------------------------------------------

/** Run N equal tasks and return per-lane dispatch counts. */
std::vector<double>
laneDispatchCounts(SchedPolicy policy, unsigned lanes, unsigned tasks)
{
    DeltaConfig cfg = DeltaConfig::delta(lanes);
    cfg.policy = policy;
    Delta delta(cfg);
    const auto ty = addScaleType(delta.registry());
    MemImage& img = delta.image();
    const Addr x = img.allocWords(tasks * 8);
    TaskGraph g;
    for (unsigned t = 0; t < tasks; ++t) {
        WriteDesc out;
        out.base = img.allocWords(8);
        g.addTask(ty,
                  {StreamDesc::linear(Space::Dram,
                                      x + t * 8 * wordBytes, 8)},
                  {out});
    }
    const StatSet stats = delta.run(g);
    std::vector<double> counts;
    for (unsigned l = 0; l < lanes; ++l) {
        counts.push_back(stats.get("dispatcher.lane" +
                                   std::to_string(l) + ".dispatched"));
    }
    return counts;
}

TEST(Policies, StaticIsOwnerCompute)
{
    const auto counts = laneDispatchCounts(SchedPolicy::Static, 4, 16);
    for (const double c : counts)
        EXPECT_DOUBLE_EQ(c, 4.0) << "uid % lanes spreads evenly";
}

TEST(Policies, DynamicPoliciesAlsoBalanceEqualTasks)
{
    for (const auto p : {SchedPolicy::DynCount, SchedPolicy::WorkAware}) {
        const auto counts = laneDispatchCounts(p, 4, 16);
        double total = 0;
        for (const double c : counts)
            total += c;
        EXPECT_DOUBLE_EQ(total, 16.0);
        for (const double c : counts)
            EXPECT_GE(c, 2.0) << schedPolicyName(p);
    }
}

TEST(Policies, WorkAwareBalancesSkewedWorkBetterThanStatic)
{
    // Tasks with wildly different stream lengths, adversarially
    // ordered so owner-compute piles heavy tasks on one lane.
    auto run = [&](SchedPolicy policy) {
        DeltaConfig cfg = DeltaConfig::delta(4);
        cfg.policy = policy;
        Delta delta(cfg);
        const auto ty = addScaleType(delta.registry());
        MemImage& img = delta.image();
        TaskGraph g;
        for (unsigned t = 0; t < 16; ++t) {
            const std::uint64_t n = t % 4 == 0 ? 2048 : 16;
            WriteDesc out;
            out.base = img.allocWords(n);
            g.addTask(ty,
                      {StreamDesc::linear(Space::Dram,
                                          img.allocWords(n), n)},
                      {out});
        }
        const StatSet stats = delta.run(g);
        return stats.get("delta.cycles");
    };
    const double staticCycles = run(SchedPolicy::Static);
    const double workCycles = run(SchedPolicy::WorkAware);
    EXPECT_LT(workCycles * 1.5, staticCycles)
        << "work-aware must clearly beat owner-compute on skew";
}

// --- dependence ordering property test ---------------------------------------

/**
 * Random DAGs of increment tasks over one shared cell chain: task i
 * reads its producer's output region and adds 1.  If any task ran
 * before its producers completed, the final values would be wrong.
 */
class RandomDagOrdering : public ::testing::TestWithParam<int>
{};

TEST_P(RandomDagOrdering, AllDependencesRespected)
{
    Rng rng(400 + GetParam());
    DeltaConfig cfg = DeltaConfig::delta(4);
    cfg.laneQueueCap = 3;
    Delta delta(cfg);
    const auto ty = addScaleType(delta.registry());
    MemImage& img = delta.image();

    const int n = 24;
    const std::uint64_t words = 8;
    std::vector<Addr> buf(n + 1);
    for (int i = 0; i <= n; ++i)
        buf[i] = img.allocWords(words);
    for (std::uint64_t w = 0; w < words; ++w)
        img.writeInt(buf[0] + w * wordBytes, 0);

    // Chain with random extra barriers; task i maps buf[p] -> buf[i+1]
    // where p is a random already-created producer buffer.
    TaskGraph g;
    std::vector<int> srcOf(n);
    std::vector<int> depth(n + 1, 0);
    for (int i = 0; i < n; ++i) {
        const int p = static_cast<int>(rng.uniformInt(0, i));
        srcOf[i] = p;
        WriteDesc out;
        out.base = buf[i + 1];
        const TaskId id = g.addTask(
            ty,
            {StreamDesc::linear(Space::Dram, buf[p], words)},
            {out});
        if (p > 0)
            g.addBarrier(static_cast<TaskId>(p - 1), id);
        // A few random extra barriers for DAG variety.
        if (i > 2 && rng.uniform01() < 0.3) {
            g.addBarrier(
                static_cast<TaskId>(rng.uniformInt(0, i - 1)), id);
        }
        depth[i + 1] = depth[p] + 1;
    }

    delta.run(g);
    for (int i = 0; i < n; ++i) {
        for (std::uint64_t w = 0; w < words; ++w) {
            EXPECT_EQ(img.readInt(buf[i + 1] + w * wordBytes),
                      depth[i + 1])
                << "task " << i << " ran before its producer";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomDagOrdering,
                         ::testing::Range(0, 20));

// --- pipeline accounting ------------------------------------------------------

TEST(Pipelines, ChainActivatesAndOverlaps)
{
    // producer -> consumer -> consumer chain, all pipelined.
    auto run = [&](bool enable) {
        DeltaConfig cfg = DeltaConfig::delta(4);
        cfg.enablePipeline = enable;
        Delta delta(cfg);
        const auto ty = addScaleType(delta.registry());
        MemImage& img = delta.image();
        const std::uint64_t n = 4096;
        std::vector<Addr> buf(4);
        for (auto& b : buf)
            b = img.allocWords(n);
        TaskGraph g;
        TaskId prev = 0;
        for (int s = 0; s < 3; ++s) {
            WriteDesc out;
            out.base = buf[s + 1];
            const TaskId id = g.addTask(
                ty,
                {StreamDesc::linear(Space::Dram, buf[s], n)},
                {out});
            if (s > 0)
                g.addPipeline(prev, 0, id, 0);
            prev = id;
        }
        const StatSet stats = delta.run(g);
        return std::pair<double, double>(
            stats.get("delta.cycles"),
            stats.get("delta.attrib.pipeline.pipesActivated"));
    };
    const auto [offCycles, offActs] = run(false);
    const auto [onCycles, onActs] = run(true);
    EXPECT_EQ(offActs, 0);
    EXPECT_EQ(onActs, 2);
    EXPECT_LT(onCycles * 1.8, offCycles)
        << "a 3-stage pipelined chain must overlap substantially";
}

TEST(Pipelines, DegradedEdgesStillProduceCorrectData)
{
    // A pipeline consumer with an extra barrier dep that cannot be
    // satisfied at producer-dispatch time degrades to memory and must
    // still read fresh data.
    DeltaConfig cfg = DeltaConfig::delta(2);
    Delta delta(cfg);
    const auto ty = addScaleType(delta.registry());
    MemImage& img = delta.image();
    const std::uint64_t n = 512;
    const Addr a = img.allocWords(n), b = img.allocWords(n),
               c = img.allocWords(n), d = img.allocWords(n);

    TaskGraph g;
    WriteDesc outB;
    outB.base = b;
    const TaskId t0 =
        g.addTask(ty, {StreamDesc::linear(Space::Dram, a, n)}, {outB});
    WriteDesc outC;
    outC.base = c;
    const TaskId t1 =
        g.addTask(ty, {StreamDesc::linear(Space::Dram, a, n)}, {outC});
    WriteDesc outD;
    outD.base = d;
    const TaskId t2 =
        g.addTask(ty, {StreamDesc::linear(Space::Dram, b, n)}, {outD});
    g.addPipeline(t0, 0, t2, 0);
    g.addBarrier(t1, t2);

    delta.run(g);
    for (std::uint64_t w = 0; w < n; ++w)
        EXPECT_EQ(img.readInt(d + w * wordBytes), 2);
}

// One pipeline edge, prod (reads a, writes b) -> cons (reads b,
// writes c), built with the producer created first and then with the
// consumer created first (a back edge in uid order).  The batch is
// ordered by dependence, not uid, so both orders place, bind and time
// the same: the producer is never queued behind a consumer that waits
// on its pipe, nor truncated out of a batch that keeps the consumer.
TEST(Pipelines, BatchesFollowDependencesNotUidOrder)
{
    struct Outcome
    {
        double cycles;
        double activated;
        double degraded;
    };
    auto run = [](DeltaConfig cfg, bool consumerFirst) {
        cfg.maxCycles = 100'000;
        Delta delta(cfg);
        const auto ty = addScaleType(delta.registry());
        MemImage& img = delta.image();
        const std::uint64_t n = 256;
        const Addr a = img.allocWords(n), b = img.allocWords(n),
                   c = img.allocWords(n);
        for (std::uint64_t w = 0; w < n; ++w)
            img.writeInt(a + w * wordBytes, static_cast<std::int64_t>(w));
        TaskGraph g;
        auto addStage = [&](Addr in, Addr out) {
            WriteDesc wd;
            wd.base = out;
            return g.addTask(ty, {StreamDesc::linear(Space::Dram, in, n)},
                             {wd});
        };
        TaskId prod = 0, cons = 0;
        if (consumerFirst) {
            cons = addStage(b, c);
            prod = addStage(a, b);
        } else {
            prod = addStage(a, b);
            cons = addStage(b, c);
        }
        g.addPipeline(prod, 0, cons, 0);
        const StatSet stats = delta.run(g);
        for (std::uint64_t w = 0; w < n; ++w) {
            EXPECT_EQ(img.readInt(c + w * wordBytes),
                      static_cast<std::int64_t>(w) + 2)
                << "word " << w << (consumerFirst ? ", consumer first" : "");
        }
        return Outcome{
            stats.get("delta.cycles"),
            stats.get("delta.attrib.pipeline.pipesActivated"),
            stats.get("delta.attrib.pipeline.pipesDegraded")};
    };
    DeltaConfig oneLane = DeltaConfig::delta(1);
    DeltaConfig oneSlot = DeltaConfig::delta(1);
    oneSlot.laneQueueCap = 1;
    for (const DeltaConfig& cfg :
         {oneLane, oneSlot, DeltaConfig::delta(2)}) {
        SCOPED_TRACE(testing::Message()
                     << cfg.lanes << " lanes, queue cap "
                     << cfg.laneQueueCap);
        const Outcome fwd = run(cfg, false);
        const Outcome back = run(cfg, true);
        EXPECT_EQ(fwd.cycles, back.cycles);
        EXPECT_EQ(fwd.activated, back.activated);
        EXPECT_EQ(fwd.degraded, back.degraded);
        EXPECT_EQ(fwd.activated + fwd.degraded, 1);
    }
}

// Two consumers of one producer port share one forward, multicast to
// their lanes; a second consumer on the same lane would collide in
// that lane's landing table and reads the memory fallback instead.
TEST(Pipelines, SecondConsumerOnOneLaneReadsMemory)
{
    auto run = [](DeltaConfig cfg) {
        Delta delta(cfg);
        const auto ty = addScaleType(delta.registry());
        MemImage& img = delta.image();
        const std::uint64_t n = 256;
        const Addr a = img.allocWords(n), b = img.allocWords(n),
                   c = img.allocWords(n), d = img.allocWords(n);
        for (std::uint64_t w = 0; w < n; ++w)
            img.writeInt(a + w * wordBytes, static_cast<std::int64_t>(w));
        TaskGraph g;
        WriteDesc outB, outC, outD;
        outB.base = b;
        outC.base = c;
        outD.base = d;
        const TaskId prod = g.addTask(
            ty, {StreamDesc::linear(Space::Dram, a, n)}, {outB});
        const TaskId c1 = g.addTask(
            ty, {StreamDesc::linear(Space::Dram, b, n)}, {outC});
        const TaskId c2 = g.addTask(
            ty, {StreamDesc::linear(Space::Dram, b, n)}, {outD});
        g.addPipeline(prod, 0, c1, 0);
        g.addPipeline(prod, 0, c2, 0);
        const StatSet stats = delta.run(g);
        for (std::uint64_t w = 0; w < n; ++w) {
            EXPECT_EQ(img.readInt(c + w * wordBytes),
                      static_cast<std::int64_t>(w) + 2);
            EXPECT_EQ(img.readInt(d + w * wordBytes),
                      static_cast<std::int64_t>(w) + 2);
        }
        return std::pair<double, double>(
            stats.get("delta.attrib.pipeline.pipesActivated"),
            stats.get("delta.attrib.pipeline.pipesDegraded"));
    };
    // One lane with room for all three: both consumers share it.
    DeltaConfig oneLane = DeltaConfig::delta(1);
    oneLane.laneQueueCap = 3;
    EXPECT_EQ(run(oneLane), std::make_pair(1.0, 1.0));
    // Two lanes: the consumers land on different lanes.
    EXPECT_EQ(run(DeltaConfig::delta(2)), std::make_pair(2.0, 0.0));
}

// --- multicast accounting ------------------------------------------------------

TEST(Multicast, SingleFetchServesAllSubscribers)
{
    DeltaConfig cfg = DeltaConfig::delta(8);
    Delta delta(cfg);
    MemImage& img = delta.image();

    auto dfg = std::make_unique<Dfg>("addp");
    const auto aIn = dfg->addInput();
    const auto bIn = dfg->addInput();
    dfg->addOutput(
        dfg->add(Op::Add, Operand::ref(aIn), Operand::ref(bIn)));
    const auto ty =
        delta.registry().addDfgType("addp", std::move(dfg));

    const std::uint64_t n = 512;
    const Addr shared = img.allocWords(n);
    TaskGraph g;
    const auto grp = g.addSharedGroup(shared, n);
    for (int t = 0; t < 8; ++t) {
        WriteDesc out;
        out.base = img.allocWords(n);
        const TaskId id = g.addTask(
            ty,
            {StreamDesc::linear(Space::Dram, img.allocWords(n), n),
             StreamDesc::linear(Space::Dram, shared, n)},
            {out});
        g.setSharedInput(id, 1, grp);
    }
    const StatSet stats = delta.run(g);
    EXPECT_EQ(stats.get("dispatcher.groupsFired"), 1);
    EXPECT_EQ(stats.get("delta.attrib.multicast.fillLines"),
              static_cast<double>(n / lineWords));
    // Every subscriber lane landed the fill once.
    EXPECT_EQ(stats.sumPrefix("lane0.fillLinesLanded") +
                  stats.sumPrefix("lane1.fillLinesLanded") +
                  stats.sumPrefix("lane2.fillLinesLanded") +
                  stats.sumPrefix("lane3.fillLinesLanded") +
                  stats.sumPrefix("lane4.fillLinesLanded") +
                  stats.sumPrefix("lane5.fillLinesLanded") +
                  stats.sumPrefix("lane6.fillLinesLanded") +
                  stats.sumPrefix("lane7.fillLinesLanded"),
              static_cast<double>(8 * n / lineWords));
}

TEST(Multicast, ReducesDramReadsVersusBaseline)
{
    auto linesRead = [&](bool multicast) {
        DeltaConfig cfg = DeltaConfig::delta(8);
        cfg.enableMulticast = multicast;
        Delta delta(cfg);
        MemImage& img = delta.image();
        auto dfg = std::make_unique<Dfg>("pass");
        const auto aIn = dfg->addInput();
        dfg->addOutput(
            dfg->add(Op::Add, Operand::ref(aIn), Operand::immI(0)));
        const auto ty =
            delta.registry().addDfgType("pass", std::move(dfg));
        const std::uint64_t n = 2048;
        const Addr shared = img.allocWords(n);
        TaskGraph g;
        const auto grp = g.addSharedGroup(shared, n);
        for (int t = 0; t < 8; ++t) {
            WriteDesc out;
            out.base = img.allocWords(n);
            const TaskId id = g.addTask(
                ty, {StreamDesc::linear(Space::Dram, shared, n)},
                {out});
            g.setSharedInput(id, 0, grp);
        }
        const StatSet stats = delta.run(g);
        return stats.get("mem.linesRead");
    };
    const double with = linesRead(true);
    const double without = linesRead(false);
    EXPECT_LT(with * 4, without)
        << "multicast must collapse 8 reads of the range into 1";
}

// --- queue capacity ------------------------------------------------------------

TEST(Dispatcher, RespectsLaneQueueCapacity)
{
    DeltaConfig cfg = DeltaConfig::delta(2);
    cfg.laneQueueCap = 2;
    Delta delta(cfg);
    const auto ty = addScaleType(delta.registry());
    MemImage& img = delta.image();
    TaskGraph g;
    for (int t = 0; t < 40; ++t) {
        WriteDesc out;
        out.base = img.allocWords(64);
        g.addTask(ty,
                  {StreamDesc::linear(Space::Dram, img.allocWords(64),
                                      64)},
                  {out});
    }
    const StatSet stats = delta.run(g);
    EXPECT_EQ(stats.get("dispatcher.tasksCompleted"), 40.0);
}

// The dispatcher builds a ready root's pipeline closure once per
// state change (an inbox packet or a dispatch commit), not once per
// cycle while the root is held back for coalescing.  msort is the
// pipeline-heavy workload, where ready roots wait in the hold.
TEST(Dispatcher, ClosureBuiltOncePerStateChange)
{
    SuiteParams sp;
    sp.scale = 0.25;
    sp.seed = 7;
    auto wl = makeWorkload(Wk::Msort, sp);
    Delta delta(DeltaConfig::delta());
    TaskGraph g;
    wl->build(delta, g);
    const StatSet stats = delta.run(g);
    ASSERT_TRUE(wl->check(delta.image()));
    EXPECT_GT(stats.get("dispatcher.pipesActivated"), 0.0);
    const double tasks = stats.get("dispatcher.tasksCompleted");
    const double evals = stats.get("sim.host.dispatcher.closureEvals");
    EXPECT_GT(evals, 0.0);
    EXPECT_LE(evals, tasks)
        << "held roots must reuse their closure until the dependence "
           "or lane state changes";
}

} // namespace
} // namespace ts
