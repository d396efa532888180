/**
 * @file
 * Failure-injection tests: the simulator must fail loudly and
 * diagnosably on misconfiguration — undersized hardware, malformed
 * streams, misused APIs — rather than silently producing wrong
 * timing or data.
 */

#include <gtest/gtest.h>

#include "accel/delta.hh"
#include "workloads/workload.hh"

namespace ts
{
namespace
{

TaskTypeId
addPassType(TaskTypeRegistry& reg)
{
    auto dfg = std::make_unique<Dfg>("pass");
    const auto x = dfg->addInput();
    dfg->addOutput(dfg->add(Op::Add, Operand::ref(x),
                            Operand::immI(0)));
    return reg.addDfgType("pass", std::move(dfg));
}

TEST(Errors, SharedLandingExhaustionIsDiagnosed)
{
    DeltaConfig cfg = DeltaConfig::delta(2);
    cfg.lane.spm.sizeWords = 64; // tiny scratchpad
    Delta delta(cfg);
    MemImage& img = delta.image();
    const auto ty = addPassType(delta.registry());

    const std::uint64_t n = 1024; // does not fit the landing space
    const Addr shared = img.allocWords(n);
    TaskGraph g;
    const auto grp = g.addSharedGroup(shared, n);
    WriteDesc out;
    out.base = img.allocWords(n);
    const TaskId id = g.addTask(
        ty, {StreamDesc::linear(Space::Dram, shared, n)}, {out});
    g.setSharedInput(id, 0, grp);

    try {
        delta.run(g);
        FAIL() << "expected fatal";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("landing"),
                  std::string::npos);
    }
}

TEST(Errors, TooManyInputsForTheLaneEngines)
{
    DeltaConfig cfg = DeltaConfig::delta(2);
    cfg.lane.numReadEngines = 1;
    Delta delta(cfg);
    MemImage& img = delta.image();

    auto dfg = std::make_unique<Dfg>("two");
    const auto a = dfg->addInput();
    const auto b = dfg->addInput();
    dfg->addOutput(dfg->add(Op::Add, Operand::ref(a),
                            Operand::ref(b)));
    const auto ty = delta.registry().addDfgType("two", std::move(dfg));

    TaskGraph g;
    WriteDesc out;
    out.base = img.allocWords(8);
    g.addTask(ty,
              {StreamDesc::linear(Space::Dram, img.allocWords(8), 8),
               StreamDesc::linear(Space::Dram, img.allocWords(8), 8)},
              {out});
    EXPECT_THROW(delta.run(g), PanicError);
}

TEST(Errors, FabricTooSmallForTheDfg)
{
    DeltaConfig cfg = DeltaConfig::delta(2);
    cfg.lane.fabric.geom = FabricGeometry{2, 2, 2};
    Delta delta(cfg);
    auto dfg = std::make_unique<Dfg>("big");
    auto cur = dfg->addInput();
    for (int i = 0; i < 8; ++i)
        cur = dfg->add(Op::Add, Operand::ref(cur), Operand::immI(1));
    dfg->addOutput(cur);
    EXPECT_THROW(delta.registry().addDfgType("big", std::move(dfg)),
                 FatalError);
}

TEST(Errors, PipeInCannotBeExpandedFunctionally)
{
    MemImage img;
    EXPECT_THROW(expandStream(StreamDesc::pipeIn(1), img, nullptr),
                 FatalError);
}

TEST(Errors, MalformedStreamDescriptorsAreRejected)
{
    DeltaConfig cfg = DeltaConfig::delta(2);
    Delta delta(cfg);
    MemImage& img = delta.image();
    const auto ty = addPassType(delta.registry());

    // Zero-length stream.
    TaskGraph g;
    WriteDesc out;
    out.base = img.allocWords(8);
    g.addTask(ty, {StreamDesc::linear(Space::Dram, 64, 0)}, {out});
    EXPECT_THROW(delta.run(g), FatalError);
}

TEST(Errors, CsrWithEmptySegmentFailsInTheEngine)
{
    DeltaConfig cfg = DeltaConfig::delta(2);
    Delta delta(cfg);
    MemImage& img = delta.image();

    auto dfg = std::make_unique<Dfg>("sum");
    const auto x = dfg->addInput();
    dfg->addOutput(dfg->add(Op::AccAdd, Operand::ref(x)));
    const auto ty = delta.registry().addDfgType("sum", std::move(dfg));

    const Addr ptr = img.allocWords(3);
    img.writeInt(ptr, 0);
    img.writeInt(ptr + wordBytes, 0); // empty segment
    img.writeInt(ptr + 2 * wordBytes, 4);
    const Addr data = img.allocWords(4);

    TaskGraph g;
    WriteDesc out;
    out.base = img.allocWords(2);
    g.addTask(ty, {StreamDesc::csr(Space::Dram, ptr, 2, data)}, {out});
    EXPECT_THROW(delta.run(g), FatalError);
}

TEST(Errors, MeshOverflowRejectedAtConstruction)
{
    // 62 lanes + dispatcher + memory = 64 nodes fits; 63 does not.
    EXPECT_NO_THROW(Delta(DeltaConfig::delta(62)));
    EXPECT_THROW(Delta(DeltaConfig::delta(63)), FatalError);
}

TEST(Errors, FullMeshRunsEndToEnd)
{
    // 62 lanes fill all 64 mesh nodes, so every destination mask uses
    // the top bit: the inject-side mesh-bounds check must not shift
    // by 64 (undefined behaviour the sanitizer job would catch).
    SuiteParams sp;
    sp.scale = 0.25;
    auto wl = makeWorkload(Wk::Spmv, sp);
    Delta delta(DeltaConfig::staticBaseline(62));
    TaskGraph g;
    wl->build(delta, g);
    const StatSet stats = delta.run(g);
    EXPECT_TRUE(wl->check(delta.image()));
    EXPECT_GT(stats.get("noc.delivered"), 0.0);
}

TEST(Errors, GraphValidationRunsAtLoad)
{
    Delta delta(DeltaConfig::delta(2));
    TaskGraph g;
    g.addSharedGroup(64, 8); // no members
    EXPECT_THROW(delta.run(g), PanicError);
}

} // namespace
} // namespace ts
