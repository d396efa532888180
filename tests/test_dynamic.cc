/**
 * @file
 * Dynamic-dependence engine tests (DESIGN.md §7): the live TaskGraph
 * (edges in any order, online cycle rejection, successor transfer)
 * and the dispatcher's runtime half of the same contract — tasks
 * spawned from inside running tasks, edges to running or completed
 * producers, transfer-on-early-finish re-gating consumers, and
 * spawned cycles dying loudly instead of deadlocking.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "accel/delta.hh"
#include "task/task_graph.hh"
#include "workloads/workload.hh"

using namespace ts;

namespace
{

/** A builtin that writes one word and models @p cycles of compute. */
BuiltinBody
writerBody(Addr addr, std::int64_t value, std::uint64_t cycles = 8)
{
    BuiltinBody b;
    b.apply = [addr, value](MemImage& img, const TaskInstance&) {
        img.writeInt(addr, value);
    };
    b.cycles = [cycles](const MemImage&, const TaskInstance&) {
        return cycles;
    };
    b.outputWords = [](const MemImage&, const TaskInstance&) {
        return std::uint64_t(0);
    };
    return b;
}

/** A builtin that copies one word src -> dst when it executes. */
BuiltinBody
copyBody(Addr src, Addr dst, std::uint64_t cycles = 8)
{
    BuiltinBody b;
    b.apply = [src, dst](MemImage& img, const TaskInstance&) {
        img.writeInt(dst, img.readInt(src));
    };
    b.cycles = [cycles](const MemImage&, const TaskInstance&) {
        return cycles;
    };
    b.outputWords = [](const MemImage&, const TaskInstance&) {
        return std::uint64_t(0);
    };
    return b;
}

} // namespace

// ---------------------------------------------------------------------
// Host-side TaskGraph: the live-graph API.
// ---------------------------------------------------------------------

TEST(TaskGraphDynamic, EdgesAcceptedInAnyOrder)
{
    TaskGraph g;
    const TaskId a = g.addTask(0, {}, {});
    const TaskId b = g.addTask(0, {}, {});
    const TaskId c = g.addTask(0, {}, {});

    // A back edge (later task gates an earlier one) — rejected by the
    // old topological-submission precondition, legal now.
    g.addBarrier(c, a);
    g.addBarrier(b, a);

    const std::vector<TaskId> order = g.topoOrder();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order.back(), a);
}

TEST(TaskGraphDynamic, CycleIsRejectedAtEdgeAddTime)
{
    TaskGraph g;
    const TaskId a = g.addTask(0, {}, {});
    const TaskId b = g.addTask(0, {}, {});
    g.addBarrier(a, b);
    EXPECT_THROW(g.addBarrier(b, a), PanicError);
    EXPECT_THROW(g.addBarrier(a, a), PanicError);
}

TEST(TaskGraphDynamic, TransferSuccessorsRehangsPendingEdges)
{
    TaskGraph g;
    WriteDesc out;
    out.base = 0;
    const StreamDesc in = StreamDesc::linear(Space::Dram, 0, 8);
    const TaskId a = g.addTask(0, {in}, {out});
    const TaskId b = g.addTask(0, {in}, {out});
    const TaskId c = g.addTask(0, {in}, {out});
    g.addBarrier(a, c);
    g.addPipeline(a, 0, c, 0);

    g.transferSuccessors(a, b);

    ASSERT_EQ(g.edges().size(), 2u);
    for (const DepEdge& e : g.edges()) {
        EXPECT_EQ(e.producer, b);
        EXPECT_EQ(e.consumer, c);
        // Forwarded stream identity does not survive the transfer.
        EXPECT_EQ(e.kind, DepKind::Barrier);
    }
}

// ---------------------------------------------------------------------
// Dispatcher-side dynamics, driven through small Delta runs.
// ---------------------------------------------------------------------

TEST(DispatcherDynamic, SpawnedEdgeToRunningProducerIsHonored)
{
    Delta delta(DeltaConfig::delta(2));
    MemImage& img = delta.image();
    const Addr x = img.allocWords(1);
    const Addr y = img.allocWords(1);

    const TaskTypeId readerTy =
        delta.registry().addBuiltinType("reader", copyBody(x, y));

    // The spawner names *itself* (a running task) as the producer of
    // the spawned consumer's gating edge.
    BuiltinBody spawner = writerBody(x, 42);
    spawner.spawn = [readerTy](MemImage&, const TaskInstance& inst,
                               SpawnSet& set) {
        const auto consumer = set.add(readerTy, {}, {});
        set.barrier(static_cast<std::int64_t>(inst.uid), consumer);
    };
    const TaskTypeId spawnerTy =
        delta.registry().addBuiltinType("spawner", std::move(spawner));

    TaskGraph g;
    g.addTask(spawnerTy, {}, {});
    const StatSet stats = delta.run(g);

    EXPECT_EQ(stats.get("dispatcher.tasksCompleted"), 2.0);
    EXPECT_EQ(stats.get("delta.tasksSpawned"), 1.0);
    EXPECT_EQ(img.readInt(y), 42);
}

TEST(DispatcherDynamic, TransferOnEarlyFinishRegatesConsumer)
{
    Delta delta(DeltaConfig::delta(2));
    MemImage& img = delta.image();
    const Addr x = img.allocWords(1);
    const Addr y = img.allocWords(1);

    // The heir runs long and only then publishes 99; the spawner
    // itself writes 7 and finishes almost immediately.
    const TaskTypeId heirTy = delta.registry().addBuiltinType(
        "heir", writerBody(x, 99, 10000));

    BuiltinBody spawner = writerBody(x, 7, 4);
    spawner.spawn = [heirTy](MemImage&, const TaskInstance&,
                             SpawnSet& set) {
        set.transferTo = set.add(heirTy, {}, {});
    };
    const TaskTypeId spawnerTy =
        delta.registry().addBuiltinType("spawner", std::move(spawner));
    const TaskTypeId readerTy =
        delta.registry().addBuiltinType("reader", copyBody(x, y));

    TaskGraph g;
    const TaskId a = g.addTask(spawnerTy, {}, {});
    const TaskId c = g.addTask(readerTy, {}, {});
    g.addBarrier(a, c);

    const StatSet stats = delta.run(g);

    // Without the transfer the reader would run as soon as the
    // spawner finished — thousands of cycles before the heir's write
    // — and copy 7 instead.
    EXPECT_EQ(stats.get("dispatcher.tasksCompleted"), 3.0);
    EXPECT_EQ(img.readInt(y), 99);
}

TEST(DispatcherDynamic, EdgeFromCompletedProducerIsSatisfied)
{
    Delta delta(DeltaConfig::delta(2));
    MemImage& img = delta.image();
    const Addr x = img.allocWords(1);
    const Addr y = img.allocWords(1);

    const TaskTypeId writerTy =
        delta.registry().addBuiltinType("writer", writerBody(x, 11));
    const TaskTypeId readerTy =
        delta.registry().addBuiltinType("reader", copyBody(x, y));

    TaskGraph g;
    const TaskId p = g.addTask(writerTy, {}, {});

    // The spawner is gated on the writer, so by the time it spawns,
    // the writer has completed; the spawned reader's edge from that
    // completed producer must count as already satisfied (no hang).
    BuiltinBody spawner;
    spawner.apply = [](MemImage&, const TaskInstance&) {};
    spawner.cycles = [](const MemImage&, const TaskInstance&) {
        return std::uint64_t(8);
    };
    spawner.outputWords = [](const MemImage&, const TaskInstance&) {
        return std::uint64_t(0);
    };
    spawner.spawn = [readerTy, p](MemImage&, const TaskInstance&,
                                    SpawnSet& set) {
        const auto reader = set.add(readerTy, {}, {});
        set.barrier(static_cast<std::int64_t>(p), reader);
    };
    const TaskTypeId spawnerTy =
        delta.registry().addBuiltinType("spawner", std::move(spawner));
    const TaskId s = g.addTask(spawnerTy, {}, {});
    g.addBarrier(p, s);

    const StatSet stats = delta.run(g);
    EXPECT_EQ(stats.get("dispatcher.tasksCompleted"), 3.0);
    EXPECT_EQ(img.readInt(y), 11);
}

TEST(DispatcherDynamic, SpawnedCycleIsFatal)
{
    Delta delta(DeltaConfig::delta(2));
    MemImage& img = delta.image();
    const Addr x = img.allocWords(1);

    const TaskTypeId leafTy =
        delta.registry().addBuiltinType("leaf", writerBody(x, 1));

    BuiltinBody spawner = writerBody(x, 0);
    spawner.spawn = [leafTy](MemImage&, const TaskInstance&,
                             SpawnSet& set) {
        const auto b = set.add(leafTy, {}, {});
        const auto m = set.add(leafTy, {}, {});
        set.barrier(b, m);
        set.barrier(m, b); // closes a cycle
    };
    const TaskTypeId spawnerTy =
        delta.registry().addBuiltinType("spawner", std::move(spawner));

    TaskGraph g;
    g.addTask(spawnerTy, {}, {});
    EXPECT_THROW(delta.run(g), PanicError);
}

// ---------------------------------------------------------------------
// End-to-end: the dynamic-spawn msort variant unfolds a whole tree
// from one submitted task, bit-identically to a fresh run.
// ---------------------------------------------------------------------

TEST(DispatcherDynamic, MsortDynUnfoldsTreeFromOneTask)
{
    SuiteParams sp;
    sp.scale = 0.25;
    auto wl = makeWorkload(Wk::MsortDyn, sp);

    Delta delta(DeltaConfig::delta(4));
    TaskGraph g;
    wl->build(delta, g);
    EXPECT_EQ(g.numTasks(), 1u);

    const StatSet stats = delta.run(g);
    EXPECT_TRUE(wl->check(delta.image()));
    EXPECT_GT(stats.get("delta.tasksSpawned"), 0.0);
    EXPECT_EQ(stats.get("dispatcher.tasksCompleted"),
              1.0 + stats.get("delta.tasksSpawned"));
}
