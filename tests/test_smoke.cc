/**
 * @file
 * End-to-end smoke tests: small task graphs through the full stack
 * (dispatcher, NoC, DRAM, stream engines, fabric).
 */

#include <gtest/gtest.h>

#include "accel/delta.hh"

namespace ts
{
namespace
{

/** y[i] = 3*x[i] + 7, elementwise over a task's chunk. */
TaskTypeId
registerScaleType(TaskTypeRegistry& reg)
{
    auto dfg = std::make_unique<Dfg>("scale");
    const auto x = dfg->addInput();
    const auto m = dfg->add(Op::Mul, Operand::ref(x), Operand::immI(3));
    const auto a = dfg->add(Op::Add, Operand::ref(m), Operand::immI(7));
    dfg->addOutput(a);
    return reg.addDfgType("scale", std::move(dfg));
}

TEST(Smoke, SingleTaskComputesElementwise)
{
    Delta delta(DeltaConfig::delta(2));
    MemImage& img = delta.image();
    const TaskTypeId scale = registerScaleType(delta.registry());

    const std::size_t n = 64;
    const Addr x = img.allocWords(n);
    const Addr y = img.allocWords(n);
    for (std::size_t i = 0; i < n; ++i)
        img.writeInt(x + i * wordBytes, static_cast<std::int64_t>(i));

    TaskGraph g;
    WriteDesc out;
    out.base = y;
    g.addTask(scale, {StreamDesc::linear(Space::Dram, x, n)}, {out});

    const StatSet stats = delta.run(g);
    EXPECT_GT(stats.get("delta.cycles"), 0);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(img.readInt(y + i * wordBytes),
                  3 * static_cast<std::int64_t>(i) + 7)
            << "at index " << i;
    }
}

TEST(Smoke, ManyIndependentTasksAllPolicies)
{
    for (const auto policy : {SchedPolicy::Static, SchedPolicy::DynCount,
                              SchedPolicy::WorkAware}) {
        DeltaConfig cfg = DeltaConfig::delta(4);
        cfg.policy = policy;
        Delta delta(cfg);
        MemImage& img = delta.image();
        const TaskTypeId scale = registerScaleType(delta.registry());

        const std::size_t tasks = 16, chunk = 32;
        const Addr x = img.allocWords(tasks * chunk);
        const Addr y = img.allocWords(tasks * chunk);
        for (std::size_t i = 0; i < tasks * chunk; ++i)
            img.writeInt(x + i * wordBytes,
                         static_cast<std::int64_t>(i * 5 % 97));

        TaskGraph g;
        for (std::size_t t = 0; t < tasks; ++t) {
            WriteDesc out;
            out.base = y + t * chunk * wordBytes;
            g.addTask(scale,
                      {StreamDesc::linear(
                          Space::Dram, x + t * chunk * wordBytes,
                          chunk)},
                      {out});
        }
        const StatSet stats = delta.run(g);
        EXPECT_EQ(stats.get("dispatcher.tasksCompleted"),
                  static_cast<double>(tasks));
        for (std::size_t i = 0; i < tasks * chunk; ++i) {
            ASSERT_EQ(img.readInt(y + i * wordBytes),
                      3 * static_cast<std::int64_t>(i * 5 % 97) + 7)
                << "policy " << schedPolicyName(policy)
                << " index " << i;
        }
    }
}

TEST(Smoke, PipelineDependenceProducesSameResult)
{
    for (const bool pipeline : {false, true}) {
        DeltaConfig cfg = DeltaConfig::delta(4);
        cfg.enablePipeline = pipeline;
        Delta delta(cfg);
        MemImage& img = delta.image();
        const TaskTypeId scale = registerScaleType(delta.registry());

        const std::size_t n = 128;
        const Addr x = img.allocWords(n);
        const Addr mid = img.allocWords(n);
        const Addr y = img.allocWords(n);
        for (std::size_t i = 0; i < n; ++i)
            img.writeInt(x + i * wordBytes,
                         static_cast<std::int64_t>(i % 31));

        TaskGraph g;
        WriteDesc outMid;
        outMid.base = mid;
        const TaskId producer = g.addTask(
            scale, {StreamDesc::linear(Space::Dram, x, n)}, {outMid});
        WriteDesc outY;
        outY.base = y;
        const TaskId consumer = g.addTask(
            scale, {StreamDesc::linear(Space::Dram, mid, n)}, {outY});
        g.addPipeline(producer, 0, consumer, 0);

        const StatSet stats = delta.run(g);
        EXPECT_EQ(stats.get("delta.attrib.pipeline.pipesActivated"),
                  pipeline ? 1 : 0);
        for (std::size_t i = 0; i < n; ++i) {
            const std::int64_t v = static_cast<std::int64_t>(i % 31);
            ASSERT_EQ(img.readInt(y + i * wordBytes),
                      3 * (3 * v + 7) + 7)
                << "pipeline=" << pipeline << " index " << i;
        }
        EXPECT_GT(stats.get("delta.cycles"), 0);
    }
}

TEST(Smoke, SharedReadMulticastProducesSameResult)
{
    // Tasks sum chunk[i] + shared[i] over a shared vector.
    for (const bool multicast : {false, true}) {
        DeltaConfig cfg = DeltaConfig::delta(4);
        cfg.enableMulticast = multicast;
        Delta delta(cfg);
        MemImage& img = delta.image();

        auto dfg = std::make_unique<Dfg>("addpair");
        const auto a = dfg->addInput();
        const auto b = dfg->addInput();
        const auto s =
            dfg->add(Op::Add, Operand::ref(a), Operand::ref(b));
        dfg->addOutput(s);
        const TaskTypeId addpair =
            delta.registry().addDfgType("addpair", std::move(dfg));

        const std::size_t tasks = 8, n = 64;
        const Addr shared = delta.image().allocWords(n);
        const Addr x = img.allocWords(tasks * n);
        const Addr y = img.allocWords(tasks * n);
        for (std::size_t i = 0; i < n; ++i)
            img.writeInt(shared + i * wordBytes,
                         static_cast<std::int64_t>(1000 + i));
        for (std::size_t i = 0; i < tasks * n; ++i)
            img.writeInt(x + i * wordBytes,
                         static_cast<std::int64_t>(i));

        TaskGraph g;
        const std::uint32_t group = g.addSharedGroup(shared, n);
        for (std::size_t t = 0; t < tasks; ++t) {
            WriteDesc out;
            out.base = y + t * n * wordBytes;
            const TaskId id = g.addTask(
                addpair,
                {StreamDesc::linear(Space::Dram,
                                    x + t * n * wordBytes, n),
                 StreamDesc::linear(Space::Dram, shared, n)},
                {out});
            g.setSharedInput(id, 1, group);
        }

        const StatSet stats = delta.run(g);
        if (multicast) {
            EXPECT_EQ(stats.get("dispatcher.groupsFired"), 1);
        }
        for (std::size_t t = 0; t < tasks; ++t) {
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(img.readInt(y + (t * n + i) * wordBytes),
                          static_cast<std::int64_t>(t * n + i) +
                              static_cast<std::int64_t>(1000 + i))
                    << "multicast=" << multicast << " task " << t
                    << " index " << i;
            }
        }
        EXPECT_GT(stats.get("delta.cycles"), 0);
    }
}

} // namespace
} // namespace ts
