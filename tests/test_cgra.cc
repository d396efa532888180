/**
 * @file
 * Unit tests for the CGRA: opcode semantics, DFG construction and
 * validation, the functional interpreter, the mapper (placement and
 * routing invariants), and the cycle-level fabric — including the
 * key property test that the fabric matches the interpreter on
 * randomized DFGs and inputs.
 */

#include <gtest/gtest.h>

#include "cgra/fabric.hh"
#include "sim/rng.hh"

namespace ts
{
namespace
{

// --- opcode semantics ---------------------------------------------------

TEST(Ops, IntegerElementwise)
{
    auto ev = [](Op op, std::int64_t a, std::int64_t b) {
        return asInt(evalElementwise(op, fromInt(a), fromInt(b), 0));
    };
    EXPECT_EQ(ev(Op::Add, 7, -3), 4);
    EXPECT_EQ(ev(Op::Sub, 7, -3), 10);
    EXPECT_EQ(ev(Op::Mul, -4, 6), -24);
    EXPECT_EQ(ev(Op::Div, 42, 5), 8);
    EXPECT_EQ(ev(Op::Div, 42, 0), 0) << "divide by zero yields 0";
    EXPECT_EQ(ev(Op::Min, 3, -9), -9);
    EXPECT_EQ(ev(Op::Max, 3, -9), 3);
    EXPECT_EQ(ev(Op::CmpLt, 2, 3), 1);
    EXPECT_EQ(ev(Op::CmpLt, 3, 2), 0);
    EXPECT_EQ(ev(Op::CmpEq, 5, 5), 1);
    EXPECT_EQ(asInt(evalElementwise(Op::Abs, fromInt(-5), 0, 0)), 5);
}

TEST(Ops, BitwiseAndShifts)
{
    auto ev = [](Op op, Word a, Word b) {
        return evalElementwise(op, a, b, 0);
    };
    EXPECT_EQ(ev(Op::And, 0xff00, 0x0ff0), 0x0f00u);
    EXPECT_EQ(ev(Op::Or, 0xf0, 0x0f), 0xffu);
    EXPECT_EQ(ev(Op::Xor, 0xff, 0x0f), 0xf0u);
    EXPECT_EQ(ev(Op::Shl, 1, 12), 1u << 12);
    EXPECT_EQ(ev(Op::Shr, 1u << 12, 12), 1u);
}

TEST(Ops, FloatingPointElementwise)
{
    auto ev = [](Op op, double a, double b) {
        return asDouble(
            evalElementwise(op, fromDouble(a), fromDouble(b), 0));
    };
    EXPECT_DOUBLE_EQ(ev(Op::FAdd, 1.5, 2.25), 3.75);
    EXPECT_DOUBLE_EQ(ev(Op::FSub, 1.5, 2.25), -0.75);
    EXPECT_DOUBLE_EQ(ev(Op::FMul, 1.5, 2.0), 3.0);
    EXPECT_DOUBLE_EQ(ev(Op::FDiv, 3.0, 2.0), 1.5);
    EXPECT_DOUBLE_EQ(ev(Op::FMin, 3.0, 2.0), 2.0);
    EXPECT_DOUBLE_EQ(ev(Op::FMax, 3.0, 2.0), 3.0);
    EXPECT_EQ(asInt(evalElementwise(Op::FCmpLt, fromDouble(1.0),
                                    fromDouble(2.0), 0)),
              1);
}

TEST(Ops, SelectAndConversions)
{
    EXPECT_EQ(evalElementwise(Op::Select, fromInt(1), 11, 22), 11u);
    EXPECT_EQ(evalElementwise(Op::Select, fromInt(0), 11, 22), 22u);
    EXPECT_DOUBLE_EQ(
        asDouble(evalElementwise(Op::IToF, fromInt(-3), 0, 0)), -3.0);
    EXPECT_EQ(asInt(evalElementwise(Op::FToI, fromDouble(2.9), 0, 0)),
              2);
}

TEST(Ops, AccumulatorStepsAndIdentities)
{
    EXPECT_EQ(asInt(evalAccStep(Op::AccAdd, fromInt(10), fromInt(5))),
              15);
    EXPECT_EQ(asInt(evalAccStep(Op::AccMax, fromInt(10), fromInt(5))),
              10);
    EXPECT_EQ(asInt(evalAccStep(Op::AccMin, fromInt(10), fromInt(5))),
              5);
    EXPECT_EQ(asInt(evalAccStep(Op::AccCount, fromInt(3), fromInt(99))),
              4);
    EXPECT_EQ(asInt(accIdentity(Op::AccAdd)), 0);
    EXPECT_DOUBLE_EQ(asDouble(accIdentity(Op::FAccAdd)), 0.0);
}

TEST(Ops, Classification)
{
    EXPECT_TRUE(isElementwise(Op::Add));
    EXPECT_TRUE(isElementwise(Op::FToI));
    EXPECT_FALSE(isElementwise(Op::AccAdd));
    EXPECT_TRUE(isAccumulator(Op::AccMin));
    EXPECT_FALSE(isAccumulator(Op::Merge2));
    EXPECT_TRUE(isStreamOp(Op::Merge2));
    EXPECT_TRUE(isStreamOp(Op::IsectCount));
    EXPECT_FALSE(isStreamOp(Op::Select));
}

// --- token helpers ------------------------------------------------------

TEST(Token, FlagHelpersAndDemotion)
{
    Token t{0, kSegEnd};
    EXPECT_TRUE(t.segEnd());
    EXPECT_FALSE(t.seg2End());
    EXPECT_FALSE(t.streamEnd());
    Token u{0, kStreamEnd};
    EXPECT_TRUE(u.segEnd());
    EXPECT_TRUE(u.seg2End());
    EXPECT_TRUE(u.streamEnd());
    EXPECT_EQ(Token::demote(kSegEnd), 0);
    EXPECT_EQ(Token::demote(kSeg2End | kSegEnd), kSegEnd);
    EXPECT_EQ(Token::demote(kStreamEnd),
              kSegEnd | kStreamEnd);
}

// --- DFG construction & interpreter -------------------------------------

TEST(Dfg, ValidationCatchesArityErrors)
{
    Dfg dfg("bad");
    auto a = dfg.addInput();
    dfg.add(Op::Add, Operand::ref(a)); // missing second operand
    dfg.addOutput(0);
    EXPECT_THROW(dfg.validate(), FatalError);
}

TEST(Dfg, ValidationRequiresPorts)
{
    Dfg noOut("noout");
    noOut.addInput();
    EXPECT_THROW(noOut.validate(), FatalError);
}

TEST(Dfg, EdgesEnumerateOperandReferences)
{
    Dfg dfg("e");
    auto a = dfg.addInput();
    auto b = dfg.addInput();
    auto c = dfg.add(Op::Add, Operand::ref(a), Operand::ref(b));
    dfg.addOutput(c);
    const auto edges = dfg.edges();
    ASSERT_EQ(edges.size(), 3u); // a->c, b->c, c->out
}

TEST(Interpreter, ElementwiseWithImmediate)
{
    Dfg dfg("scale");
    auto x = dfg.addInput();
    auto m = dfg.add(Op::Mul, Operand::ref(x), Operand::immI(3));
    dfg.addOutput(m);
    dfg.validate();

    auto out = evalDfg(
        dfg, {makeStream({fromInt(1), fromInt(2), fromInt(5)})});
    ASSERT_EQ(out[0].size(), 3u);
    EXPECT_EQ(asInt(out[0][0].value), 3);
    EXPECT_EQ(asInt(out[0][2].value), 15);
    EXPECT_TRUE(out[0][2].streamEnd());
}

TEST(Interpreter, SegmentedAccumulation)
{
    Dfg dfg("acc");
    auto x = dfg.addInput();
    auto s = dfg.add(Op::AccAdd, Operand::ref(x));
    dfg.addOutput(s);

    std::vector<Token> in = {
        {fromInt(1), 0},       {fromInt(2), kSegEnd},
        {fromInt(10), 0},      {fromInt(20), 0},
        {fromInt(30), kSegEnd | kStreamEnd},
    };
    auto out = evalDfg(dfg, {in});
    ASSERT_EQ(out[0].size(), 2u);
    EXPECT_EQ(asInt(out[0][0].value), 3);
    EXPECT_EQ(asInt(out[0][1].value), 60);
    EXPECT_TRUE(out[0][1].streamEnd());
}

TEST(Interpreter, TwoLevelReductionDemotesBoundaries)
{
    // Sum pairs (level 1), then min over pairs-of-sums (level 2).
    Dfg dfg("two");
    auto x = dfg.addInput();
    auto s = dfg.add(Op::AccAdd, Operand::ref(x));
    auto m = dfg.add(Op::AccMin, Operand::ref(s));
    dfg.addOutput(m);

    std::vector<Token> in = {
        {fromInt(5), 0}, {fromInt(1), kSegEnd},           // 6
        {fromInt(2), 0}, {fromInt(1), kSegEnd | kSeg2End}, // 3 -> min 3
        {fromInt(9), 0}, {fromInt(9), kSegEnd},           // 18
        {fromInt(1), 0},
        {fromInt(1), std::uint8_t(kSegEnd | kStreamEnd)}, // 2 -> min 2
    };
    auto out = evalDfg(dfg, {in});
    ASSERT_EQ(out[0].size(), 2u);
    EXPECT_EQ(asInt(out[0][0].value), 3);
    EXPECT_EQ(asInt(out[0][1].value), 2);
}

TEST(Interpreter, MergeTwoSortedStreams)
{
    Dfg dfg("m");
    auto a = dfg.addInput();
    auto b = dfg.addInput();
    auto m = dfg.add(Op::Merge2, Operand::ref(a), Operand::ref(b));
    dfg.addOutput(m);

    auto out = evalDfg(
        dfg, {makeStream({fromInt(1), fromInt(4), fromInt(9)}),
              makeStream({fromInt(2), fromInt(3), fromInt(10)})});
    const auto vals = streamValues(out[0]);
    std::vector<std::int64_t> got;
    for (const Word w : vals)
        got.push_back(asInt(w));
    EXPECT_EQ(got, (std::vector<std::int64_t>{1, 2, 3, 4, 9, 10}));
    EXPECT_TRUE(out[0].back().streamEnd());
}

TEST(Interpreter, IsectCountPerSegment)
{
    Dfg dfg("i");
    auto a = dfg.addInput();
    auto b = dfg.addInput();
    auto c = dfg.add(Op::IsectCount, Operand::ref(a), Operand::ref(b));
    dfg.addOutput(c);

    std::vector<Token> sa = {
        {fromInt(1), 0}, {fromInt(3), kSegEnd},
        {fromInt(2), 0}, {fromInt(4), kSegEnd | kStreamEnd}};
    std::vector<Token> sb = {
        {fromInt(3), 0}, {fromInt(5), kSegEnd},
        {fromInt(2), 0}, {fromInt(4), kSegEnd | kStreamEnd}};
    auto out = evalDfg(dfg, {sa, sb});
    ASSERT_EQ(out[0].size(), 2u);
    EXPECT_EQ(asInt(out[0][0].value), 1);
    EXPECT_EQ(asInt(out[0][1].value), 2);
    EXPECT_TRUE(out[0][1].streamEnd());
}

// --- mapper ----------------------------------------------------------------

Dfg
makeChainDfg(unsigned computeNodes)
{
    Dfg dfg("chain");
    auto cur = dfg.addInput();
    for (unsigned i = 0; i < computeNodes; ++i)
        cur = dfg.add(Op::Add, Operand::ref(cur), Operand::immI(1));
    dfg.addOutput(cur);
    return dfg;
}

TEST(Mapper, PlacesEveryNodeOnDistinctTiles)
{
    Dfg dfg = makeChainDfg(10);
    Mapper mapper(FabricGeometry{6, 6, 2});
    const MappedDfg m = mapper.map(dfg);
    std::set<std::uint32_t> tiles(m.nodeTile.begin(), m.nodeTile.end());
    EXPECT_EQ(tiles.size(), dfg.numNodes());
    for (const auto t : m.nodeTile)
        EXPECT_LT(t, 36u);
}

TEST(Mapper, RoutesConnectProducerToConsumer)
{
    Dfg dfg = makeChainDfg(6);
    Mapper mapper(FabricGeometry{6, 6, 2});
    const MappedDfg m = mapper.map(dfg);
    for (const auto& r : m.routes) {
        ASSERT_GE(r.path.size(), 2u);
        EXPECT_EQ(r.path.front(), m.nodeTile[r.edge.src]);
        EXPECT_EQ(r.path.back(), m.nodeTile[r.edge.dst]);
        // Path steps are mesh-adjacent.
        for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
            const auto a = r.path[i], b = r.path[i + 1];
            const auto ax = a % 6, ay = a / 6;
            const auto bx = b % 6, by = b / 6;
            EXPECT_EQ(std::abs(int(ax) - int(bx)) +
                          std::abs(int(ay) - int(by)),
                      1);
        }
    }
}

TEST(Mapper, RespectsLinkCapacity)
{
    // High-fanout DFG on multiplicity-2 links: every directed link
    // carries at most 2 routes.
    Dfg dfg("fan");
    auto x = dfg.addInput();
    std::vector<std::uint32_t> adds;
    for (int i = 0; i < 6; ++i)
        adds.push_back(
            dfg.add(Op::Add, Operand::ref(x), Operand::immI(i)));
    auto acc = adds[0];
    for (int i = 1; i < 6; ++i)
        acc = dfg.add(Op::Add, Operand::ref(acc),
                      Operand::ref(adds[i]));
    dfg.addOutput(acc);

    Mapper mapper(FabricGeometry{6, 6, 2});
    const MappedDfg m = mapper.map(dfg);
    std::map<std::pair<std::uint32_t, std::uint32_t>, int> use;
    for (const auto& r : m.routes) {
        for (std::size_t i = 0; i + 1 < r.path.size(); ++i)
            ++use[{r.path[i], r.path[i + 1]}];
    }
    for (const auto& [link, n] : use)
        EXPECT_LE(n, 2) << link.first << "->" << link.second;
}

TEST(Mapper, FatalWhenDfgTooLarge)
{
    Dfg dfg = makeChainDfg(40);
    Mapper mapper(FabricGeometry{3, 3, 2});
    EXPECT_THROW(mapper.map(dfg), FatalError);
}

// --- fabric vs interpreter (property test) -------------------------------

/** Drive a mapped DFG on the fabric with the given inputs. */
std::vector<std::vector<Token>>
runOnFabric(const Dfg& dfg, const MappedDfg& m,
            const std::vector<std::vector<Token>>& inputs,
            Tick maxCycles = 100000)
{
    FabricConfig fc;
    Fabric fab("fab", fc);
    fab.configure(&m, 0);

    std::vector<std::size_t> pos(inputs.size(), 0);
    std::vector<std::vector<Token>> outputs(dfg.numOutputs());
    for (Tick now = 0; now < maxCycles; ++now) {
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            while (pos[i] < inputs[i].size() &&
                   fab.inPort(static_cast<std::uint32_t>(i)).push(
                       inputs[i][pos[i]])) {
                ++pos[i];
            }
        }
        fab.tick(now);
        for (std::uint32_t o = 0; o < dfg.numOutputs(); ++o) {
            while (!fab.outPort(o).empty())
                outputs[o].push_back(fab.outPort(o).pop());
        }
        bool fed = true;
        for (std::size_t i = 0; i < inputs.size(); ++i)
            fed = fed && pos[i] == inputs[i].size();
        if (fed && fab.drained() && !fab.busy())
            break;
    }
    return outputs;
}

void
expectStreamsEqual(const std::vector<Token>& a,
                   const std::vector<Token>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].value, b[i].value) << "value @" << i;
        EXPECT_EQ(a[i].flags, b[i].flags) << "flags @" << i;
    }
}

TEST(Fabric, MatchesInterpreterOnScaleChain)
{
    Dfg dfg = makeChainDfg(5);
    Mapper mapper(FabricGeometry{6, 6, 2});
    const MappedDfg m = mapper.map(dfg);
    std::vector<Word> words;
    for (int i = 0; i < 50; ++i)
        words.push_back(fromInt(i * 7 - 20));
    const auto in = makeStream(words);
    expectStreamsEqual(runOnFabric(dfg, m, {in})[0],
                       evalDfg(dfg, {in})[0]);
}

/** Random-DFG property sweep: fabric == interpreter. */
class FabricRandomDfg : public ::testing::TestWithParam<int>
{};

TEST_P(FabricRandomDfg, MatchesInterpreter)
{
    Rng rng(1000 + GetParam());

    // Build a random elementwise DAG with 2 inputs, then a random
    // accumulator, mirroring realistic task bodies.
    Dfg dfg("rand");
    std::vector<std::uint32_t> pool;
    pool.push_back(dfg.addInput());
    pool.push_back(dfg.addInput());
    const Op elemOps[] = {Op::Add, Op::Sub, Op::Mul, Op::Min,
                          Op::Max, Op::And, Op::Or,  Op::Xor,
                          Op::CmpLt, Op::CmpEq};
    const int nOps = static_cast<int>(rng.uniformInt(2, 6));
    for (int i = 0; i < nOps; ++i) {
        const Op op = elemOps[rng.uniformInt(0, 9)];
        const auto a =
            pool[rng.uniformInt(0, static_cast<int>(pool.size()) - 1)];
        Operand bOp;
        if (rng.uniform01() < 0.3) {
            bOp = Operand::immI(rng.uniformInt(-5, 5));
        } else {
            bOp = Operand::ref(pool[rng.uniformInt(
                0, static_cast<int>(pool.size()) - 1)]);
        }
        pool.push_back(dfg.add(op, Operand::ref(a), bOp));
    }
    const Op accOps[] = {Op::AccAdd, Op::AccMax, Op::AccMin,
                         Op::AccCount};
    const auto acc = dfg.add(accOps[rng.uniformInt(0, 3)],
                             Operand::ref(pool.back()));
    dfg.addOutput(acc);
    dfg.addOutput(pool.back());
    dfg.validate();

    // Random graphs can have pathological fanout; give the sweep a
    // link-rich fabric (unroutable-at-capacity is itself tested in
    // Mapper.FatalWhenDfgTooLarge).
    Mapper mapper(FabricGeometry{6, 6, 3});
    const MappedDfg m = mapper.map(dfg);

    // Random segmented input streams (equal length, aligned flags).
    const int n = static_cast<int>(rng.uniformInt(8, 64));
    std::vector<Token> inA, inB;
    int segLeft = static_cast<int>(rng.uniformInt(1, 5));
    for (int i = 0; i < n; ++i) {
        std::uint8_t f = 0;
        if (--segLeft == 0) {
            f |= kSegEnd;
            segLeft = static_cast<int>(rng.uniformInt(1, 5));
        }
        if (i + 1 == n)
            f |= kSegEnd | kStreamEnd;
        inA.push_back(Token{fromInt(rng.uniformInt(-100, 100)), f});
        inB.push_back(Token{fromInt(rng.uniformInt(-100, 100)), f});
    }

    const auto want = evalDfg(dfg, {inA, inB});
    const auto got = runOnFabric(dfg, m, {inA, inB});
    for (std::uint32_t o = 0; o < dfg.numOutputs(); ++o)
        expectStreamsEqual(got[o], want[o]);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FabricRandomDfg,
                         ::testing::Range(0, 40));

/** Random sorted streams through Merge2 and IsectCount. */
class FabricStreamOps : public ::testing::TestWithParam<int>
{};

TEST_P(FabricStreamOps, MergeMatchesInterpreter)
{
    Rng rng(5000 + GetParam());
    auto sortedStream = [&](int n) {
        std::vector<Word> w;
        std::int64_t v = 0;
        for (int i = 0; i < n; ++i) {
            v += rng.uniformInt(0, 7);
            w.push_back(fromInt(v));
        }
        return makeStream(w);
    };

    Dfg dfg("m");
    auto a = dfg.addInput();
    auto b = dfg.addInput();
    dfg.addOutput(
        dfg.add(Op::Merge2, Operand::ref(a), Operand::ref(b)));

    Mapper mapper(FabricGeometry{6, 6, 2});
    const MappedDfg m = mapper.map(dfg);
    const auto inA = sortedStream(
        static_cast<int>(rng.uniformInt(1, 40)));
    const auto inB = sortedStream(
        static_cast<int>(rng.uniformInt(1, 40)));
    expectStreamsEqual(runOnFabric(dfg, m, {inA, inB})[0],
                       evalDfg(dfg, {inA, inB})[0]);
}

TEST_P(FabricStreamOps, IsectMatchesInterpreter)
{
    Rng rng(9000 + GetParam());
    const int segs = static_cast<int>(rng.uniformInt(1, 6));
    auto segmented = [&](int numSegs) {
        std::vector<Token> out;
        for (int s = 0; s < numSegs; ++s) {
            const int len = static_cast<int>(rng.uniformInt(1, 10));
            std::int64_t v = 0;
            for (int i = 0; i < len; ++i) {
                v += rng.uniformInt(1, 4);
                std::uint8_t f = 0;
                if (i + 1 == len)
                    f |= kSegEnd;
                if (i + 1 == len && s + 1 == numSegs)
                    f |= kStreamEnd;
                out.push_back(Token{fromInt(v), f});
            }
        }
        return out;
    };

    Dfg dfg("i");
    auto a = dfg.addInput();
    auto b = dfg.addInput();
    dfg.addOutput(
        dfg.add(Op::IsectCount, Operand::ref(a), Operand::ref(b)));

    Mapper mapper(FabricGeometry{6, 6, 2});
    const MappedDfg m = mapper.map(dfg);
    const auto inA = segmented(segs);
    const auto inB = segmented(segs);
    expectStreamsEqual(runOnFabric(dfg, m, {inA, inB})[0],
                       evalDfg(dfg, {inA, inB})[0]);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FabricStreamOps,
                         ::testing::Range(0, 30));

// --- fabric behaviours -----------------------------------------------------

TEST(Fabric, ReconfigurationCostsCycles)
{
    Dfg dfg = makeChainDfg(4);
    Mapper mapper(FabricGeometry{6, 6, 2});
    const MappedDfg m = mapper.map(dfg);

    FabricConfig fc;
    Fabric fab("fab", fc);
    fab.configure(&m, 100);
    EXPECT_FALSE(fab.ready(100));
    const Tick cost = fc.configBaseCycles +
                      fc.configPerNodeCycles * dfg.numNodes();
    EXPECT_FALSE(fab.ready(100 + cost - 1));
    EXPECT_TRUE(fab.ready(100 + cost));
    EXPECT_EQ(fab.reconfigs(), 1u);

    // Re-loading the same config is free.
    fab.configure(&m, 5000);
    EXPECT_TRUE(fab.ready(5000));
    EXPECT_EQ(fab.reconfigs(), 1u);
}

TEST(Fabric, BackpressureWhenOutputPortNotDrained)
{
    Dfg dfg = makeChainDfg(1);
    Mapper mapper(FabricGeometry{6, 6, 2});
    const MappedDfg m = mapper.map(dfg);
    FabricConfig fc;
    fc.portFifoDepth = 4;
    Fabric fab("fab", fc);
    fab.configure(&m, 0);

    // Never drain the output: input acceptance must stall.
    std::size_t accepted = 0;
    for (Tick now = 0; now < 300; ++now) {
        if (fab.inPort(0).push(Token{fromInt(1), 0}))
            ++accepted;
        fab.tick(now);
    }
    EXPECT_LT(accepted, 40u)
        << "tokens must not vanish into an undrained fabric";
    EXPECT_FALSE(fab.drained());
}

/** Feed one token and tick until it reaches the output port,
 *  checking drained() on the way; returns the cycles taken. */
Tick
passOneToken(Fabric& fab, Tick start)
{
    EXPECT_TRUE(fab.drained());
    EXPECT_TRUE(fab.inPort(0).push(Token{fromInt(5), kSegEnd}));
    Tick now = start;
    for (; now < start + 200 && fab.outPort(0).empty(); ++now) {
        fab.tick(now);
        // Between the ports the token sits in a route register, an
        // operand FIFO or an FU pipe; each must count as in flight.
        EXPECT_FALSE(fab.drained()) << "cycle " << now;
    }
    EXPECT_FALSE(fab.outPort(0).empty()) << "token never arrived";
    EXPECT_FALSE(fab.drained()) << "token parked in the output port";
    EXPECT_EQ(asInt(fab.outPort(0).pop().value), 5 + 5 + 2);
    EXPECT_TRUE(fab.drained());
    return now;
}

TEST(Fabric, DrainedTracksTokensInsideTheFabric)
{
    // Fan-out (x feeds both add operands) and a multi-cycle pipe, so
    // one input token is copied, joined and pipelined on its way.
    Dfg dfg("fanout");
    const auto x = dfg.addInput();
    const auto y = dfg.add(Op::Add, Operand::ref(x), Operand::ref(x));
    const auto z = dfg.add(Op::Add, Operand::ref(y), Operand::immI(2));
    dfg.addOutput(z);
    Mapper mapper(FabricGeometry{6, 6, 2});
    const MappedDfg m = mapper.map(dfg);
    const Dfg chain = makeChainDfg(2);
    const MappedDfg other = mapper.map(chain);

    FabricConfig fc;
    Fabric fab("fab", fc);
    EXPECT_TRUE(fab.drained());
    fab.configure(&m, 0);
    Tick now = fc.configBaseCycles +
               fc.configPerNodeCycles * dfg.numNodes();
    now = passOneToken(fab, now);

    // Reuse under the same configuration.
    fab.resetStreams();
    now = passOneToken(fab, now);

    // Reconfigure away and back: the count starts from zero again.
    fab.configure(&other, now);
    fab.configure(&m, now);
    now += fc.configBaseCycles + fc.configPerNodeCycles * dfg.numNodes();
    passOneToken(fab, now);
}

TEST(Fabric, ThroughputApproachesOneTokenPerCycle)
{
    // A clean elementwise pipeline should sustain II ~= 1.
    Dfg dfg = makeChainDfg(3);
    Mapper mapper(FabricGeometry{6, 6, 2});
    const MappedDfg m = mapper.map(dfg);
    FabricConfig fc;
    Fabric fab("fab", fc);
    fab.configure(&m, 0);

    const int n = 400;
    int fed = 0, got = 0;
    Tick lastOut = 0;
    for (Tick now = 0; now < 2000; ++now) {
        if (fed < n && fab.inPort(0).push(Token{
                           fromInt(fed),
                           fed + 1 == n ? std::uint8_t(kSegEnd |
                                                       kStreamEnd)
                                        : std::uint8_t(0)})) {
            ++fed;
        }
        fab.tick(now);
        while (!fab.outPort(0).empty()) {
            fab.outPort(0).pop();
            ++got;
            lastOut = now;
        }
        if (got == n)
            break;
    }
    ASSERT_EQ(got, n);
    EXPECT_LT(lastOut, static_cast<Tick>(n + 100))
        << "pipeline should sustain roughly one token per cycle";
}

} // namespace
} // namespace ts
