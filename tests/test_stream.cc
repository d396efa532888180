/**
 * @file
 * Unit tests for the stream substrate: descriptor expansion (golden
 * semantics), the in-order word fetcher, the read engine (the key
 * property: timed delivery equals golden expansion, for every
 * descriptor kind and both address spaces), and the write engine.
 */

#include <gtest/gtest.h>

#include "mem/main_memory.hh"
#include "sim/rng.hh"
#include "stream/read_engine.hh"
#include "stream/write_engine.hh"

namespace ts
{
namespace
{

/** Direct bridge from the engine port interface to a MainMemory,
 *  bypassing the NoC (latency/order behaviour preserved). */
class DirectMemPort : public MemPortIf, public Ticked
{
  public:
    DirectMemPort(Simulator& sim, const MainMemoryConfig& cfg)
        : Ticked("directport"),
          reqCh_(sim.makeChannel<MemReq>("dp.req", 16)),
          respCh_(sim.makeChannel<MemResp>("dp.resp", 16)),
          mem_(sim, cfg, reqCh_, respCh_)
    {
        sim.add(this);
        sim.add(&mem_);
    }

    bool
    requestLine(Addr lineAddr, LineSink& sink,
                std::uint64_t cookie) override
    {
        MemReq req;
        req.lineAddr = lineAddr;
        req.tag = nextTag_;
        if (!reqCh_.push(req))
            return false;
        pending_.emplace(nextTag_++, Pending{&sink, cookie});
        return true;
    }

    bool
    writeLine(Addr lineAddr) override
    {
        MemReq req;
        req.lineAddr = lineAddr;
        req.write = true;
        return reqCh_.push(req);
    }

    void
    tick(Tick) override
    {
        while (!respCh_.empty()) {
            const MemResp resp = respCh_.pop();
            auto it = pending_.find(resp.tag);
            ASSERT_TRUE(it != pending_.end());
            const Pending p = it->second;
            pending_.erase(it);
            p.sink->lineArrived(resp.lineAddr, p.cookie);
        }
    }

    bool busy() const override { return false; }

    const MainMemory& memory() const { return mem_; }

  private:
    Channel<MemReq>& reqCh_;
    Channel<MemResp>& respCh_;
    MainMemory mem_;
    struct Pending
    {
        LineSink* sink;
        std::uint64_t cookie;
    };

    std::uint64_t nextTag_ = 1;
    std::map<std::uint64_t, Pending> pending_;
};

/** Common engine-test rig. */
struct Rig
{
    Simulator sim;
    MemImage img;
    Scratchpad spm{"spm", ScratchpadConfig{1 << 14, 4}};
    DirectMemPort port{sim, MainMemoryConfig{}};
    PipeSet pipes;

    Rig() { sim.add(&spm); }

    /** Run a programmed read engine to completion; collect tokens. */
    std::vector<Token>
    drain(ReadEngine& re, TokenFifo& dest, Tick maxCycles = 100000)
    {
        std::vector<Token> out;
        const Tick start = sim.now();
        while (re.active() && sim.now() - start < maxCycles) {
            sim.step(1);
            while (!dest.empty())
                out.push_back(dest.pop());
        }
        while (!dest.empty())
            out.push_back(dest.pop());
        EXPECT_FALSE(re.active()) << "engine failed to finish";
        return out;
    }
};

void
expectTokensEqual(const std::vector<Token>& got,
                  const std::vector<Token>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].value, want[i].value) << "value @" << i;
        EXPECT_EQ(got[i].flags, want[i].flags) << "flags @" << i;
    }
}

// --- descriptor expansion golden cases -----------------------------------

TEST(StreamDesc, LinearBasicFlags)
{
    MemImage img;
    const Addr a = img.allocWords(4);
    for (int i = 0; i < 4; ++i)
        img.writeInt(a + i * wordBytes, 10 + i);
    const auto toks =
        expandStream(StreamDesc::linear(Space::Dram, a, 4), img,
                     nullptr);
    ASSERT_EQ(toks.size(), 4u);
    EXPECT_EQ(asInt(toks[0].value), 10);
    EXPECT_EQ(toks[0].flags, 0);
    EXPECT_EQ(toks[3].flags, kSegEnd | kSeg2End | kStreamEnd);
}

TEST(StreamDesc, LinearStrideAndFixedSeg)
{
    MemImage img;
    const Addr a = img.allocWords(16);
    for (int i = 0; i < 16; ++i)
        img.writeInt(a + i * wordBytes, i);
    StreamDesc d = StreamDesc::linear(Space::Dram, a, 4, 2);
    d.fixedSegLen = 2;
    const auto toks = expandStream(d, img, nullptr);
    ASSERT_EQ(toks.size(), 4u);
    EXPECT_EQ(asInt(toks[1].value), 2);
    EXPECT_EQ(asInt(toks[3].value), 6);
    EXPECT_EQ(toks[1].flags, kSegEnd);
    EXPECT_EQ(toks[0].flags, 0);
}

TEST(StreamDesc, LinearLoopsEmitSeg2Boundaries)
{
    MemImage img;
    const Addr a = img.allocWords(3);
    for (int i = 0; i < 3; ++i)
        img.writeInt(a + i * wordBytes, i);
    StreamDesc d = StreamDesc::linear(Space::Dram, a, 3);
    d.loops = 2;
    const auto toks = expandStream(d, img, nullptr);
    ASSERT_EQ(toks.size(), 6u);
    EXPECT_EQ(toks[2].flags, kSegEnd | kSeg2End);
    EXPECT_EQ(toks[5].flags, kSegEnd | kSeg2End | kStreamEnd);
    EXPECT_EQ(asInt(toks[3].value), 0) << "second loop restarts";
}

TEST(StreamDesc, RepeatDuplicatesElements)
{
    MemImage img;
    const Addr a = img.allocWords(2);
    img.writeInt(a, 5);
    img.writeInt(a + wordBytes, 6);
    StreamDesc d = StreamDesc::linear(Space::Dram, a, 2);
    d.repeat = 3;
    const auto toks = expandStream(d, img, nullptr);
    ASSERT_EQ(toks.size(), 6u);
    EXPECT_EQ(asInt(toks[0].value), 5);
    EXPECT_EQ(asInt(toks[2].value), 5);
    EXPECT_EQ(toks[1].flags, 0) << "flags only on the final copy";
    EXPECT_TRUE(toks[5].streamEnd());
}

TEST(StreamDesc, Strided2dRowsAndRowRepeat)
{
    MemImage img;
    const Addr a = img.allocWords(8);
    for (int i = 0; i < 8; ++i)
        img.writeInt(a + i * wordBytes, i);
    StreamDesc d = StreamDesc::strided2d(Space::Dram, a, 2, 4, 2);
    d.rowRepeat = 2;
    const auto toks = expandStream(d, img, nullptr);
    // rows {0,1} x2, {4,5} x2
    ASSERT_EQ(toks.size(), 8u);
    EXPECT_EQ(asInt(toks[2].value), 0);
    EXPECT_EQ(asInt(toks[4].value), 4);
    EXPECT_EQ(toks[1].flags, kSegEnd);
    EXPECT_EQ(toks[3].flags, kSegEnd | kSeg2End);
    EXPECT_EQ(toks[7].flags,
              kSegEnd | kSeg2End | kStreamEnd);
}

TEST(StreamDesc, IndirectGather)
{
    MemImage img;
    const Addr idx = img.allocWords(3);
    const Addr data = img.allocWords(10);
    const std::int64_t ids[] = {7, 2, 5};
    for (int i = 0; i < 3; ++i)
        img.writeInt(idx + i * wordBytes, ids[i]);
    for (int i = 0; i < 10; ++i)
        img.writeInt(data + i * wordBytes, 100 + i);
    const auto toks = expandStream(
        StreamDesc::indirect(Space::Dram, idx, 3, Space::Dram, data),
        img, nullptr);
    ASSERT_EQ(toks.size(), 3u);
    EXPECT_EQ(asInt(toks[0].value), 107);
    EXPECT_EQ(asInt(toks[1].value), 102);
    EXPECT_EQ(asInt(toks[2].value), 105);
}

TEST(StreamDesc, CsrSegmentsCarryBoundaries)
{
    MemImage img;
    const Addr ptr = img.allocWords(4);
    const Addr data = img.allocWords(6);
    const std::int64_t ptrs[] = {0, 2, 3, 6};
    for (int i = 0; i < 4; ++i)
        img.writeInt(ptr + i * wordBytes, ptrs[i]);
    for (int i = 0; i < 6; ++i)
        img.writeInt(data + i * wordBytes, i * 10);
    const auto toks = expandStream(
        StreamDesc::csr(Space::Dram, ptr, 3, data), img, nullptr);
    ASSERT_EQ(toks.size(), 6u);
    EXPECT_EQ(toks[1].flags, kSegEnd);
    EXPECT_EQ(toks[2].flags, kSegEnd);
    EXPECT_EQ(toks[5].flags, kSegEnd | kStreamEnd);
}

TEST(StreamDesc, CsrRejectsEmptySegments)
{
    MemImage img;
    const Addr ptr = img.allocWords(3);
    img.writeInt(ptr, 0);
    img.writeInt(ptr + wordBytes, 0); // empty segment
    img.writeInt(ptr + 2 * wordBytes, 2);
    EXPECT_THROW(expandStream(StreamDesc::csr(Space::Dram, ptr, 2, 0),
                              img, nullptr),
                 FatalError);
}

TEST(StreamDesc, CsrIndirectSegSelectsSegmentsByIdList)
{
    MemImage img;
    const Addr ptr = img.allocWords(5);
    const Addr data = img.allocWords(8);
    const Addr list = img.allocWords(2);
    const std::int64_t ptrs[] = {0, 2, 4, 6, 8};
    for (int i = 0; i < 5; ++i)
        img.writeInt(ptr + i * wordBytes, ptrs[i]);
    for (int i = 0; i < 8; ++i)
        img.writeInt(data + i * wordBytes, i);
    img.writeInt(list, 3);
    img.writeInt(list + wordBytes, 1);
    const auto toks = expandStream(
        StreamDesc::csrIndirectSeg(Space::Dram, list, 2, ptr,
                                   Space::Dram, data),
        img, nullptr);
    ASSERT_EQ(toks.size(), 4u);
    EXPECT_EQ(asInt(toks[0].value), 6); // segment 3 = {6,7}
    EXPECT_EQ(asInt(toks[2].value), 2); // segment 1 = {2,3}
    EXPECT_EQ(toks[1].flags, kSegEnd);
    EXPECT_EQ(toks[3].flags, kSegEnd | kStreamEnd);
}

TEST(StreamDesc, DramRangeRecognition)
{
    Addr base;
    std::uint64_t words;
    EXPECT_TRUE(StreamDesc::linear(Space::Dram, 256, 10)
                    .dramRange(base, words));
    EXPECT_EQ(base, 256u);
    EXPECT_EQ(words, 10u);
    EXPECT_FALSE(StreamDesc::linear(Space::Dram, 256, 10, 2)
                     .dramRange(base, words));
    EXPECT_FALSE(StreamDesc::linear(Space::Spm, 0, 10)
                     .dramRange(base, words));
}

TEST(StreamDesc, ElementCountsResolveAgainstImage)
{
    MemImage img;
    const Addr ptr = img.allocWords(3);
    img.writeInt(ptr, 4);
    img.writeInt(ptr + wordBytes, 9);
    img.writeInt(ptr + 2 * wordBytes, 11);
    EXPECT_EQ(StreamDesc::csr(Space::Dram, ptr, 2, 0)
                  .elementCount(img),
              7u);
    StreamDesc lin = StreamDesc::linear(Space::Dram, 0, 5);
    lin.loops = 3;
    EXPECT_EQ(lin.elementCount(img), 15u);
    StreamDesc s2 = StreamDesc::strided2d(Space::Dram, 0, 4, 8, 2);
    s2.rowRepeat = 3;
    EXPECT_EQ(s2.elementCount(img), 24u);
}

// --- read engine: timed delivery equals golden expansion -----------------

enum class DescCase
{
    LinearDram,
    LinearStride,
    LinearLoops,
    LinearSpm,
    Strided2D,
    RowRepeat,
    Indirect,
    IndirectSpmData,
    Csr,
    CsrGather,
    CsrIndirectSeg,
    Repeat,
};

class ReadEngineMatchesGolden
    : public ::testing::TestWithParam<DescCase>
{};

TEST_P(ReadEngineMatchesGolden, DeliversGoldenTokenSequence)
{
    Rig rig;
    Rng rng(77);

    // Shared backing data.
    const std::uint64_t n = 64;
    const Addr data = rig.img.allocWords(256);
    for (std::uint64_t i = 0; i < 256; ++i)
        rig.img.writeInt(data + i * wordBytes,
                         rng.uniformInt(-1000, 1000));
    for (std::size_t i = 0; i < 256; ++i)
        rig.spm.write(i, fromInt(rng.uniformInt(-50, 50)));

    StreamDesc d;
    switch (GetParam()) {
      case DescCase::LinearDram:
        d = StreamDesc::linear(Space::Dram, data, n);
        d.fixedSegLen = 8;
        break;
      case DescCase::LinearStride:
        d = StreamDesc::linear(Space::Dram, data, 32, 3);
        break;
      case DescCase::LinearLoops:
        d = StreamDesc::linear(Space::Dram, data, 16);
        d.loops = 4;
        break;
      case DescCase::LinearSpm:
        d = StreamDesc::linear(Space::Spm, 8, 48);
        d.fixedSegLen = 6;
        break;
      case DescCase::Strided2D:
        d = StreamDesc::strided2d(Space::Dram, data, 6, 16, 5);
        break;
      case DescCase::RowRepeat:
        d = StreamDesc::strided2d(Space::Dram, data, 4, 8, 4);
        d.rowRepeat = 3;
        break;
      case DescCase::Indirect: {
        const Addr idx = rig.img.allocWords(24);
        for (int i = 0; i < 24; ++i)
            rig.img.writeInt(idx + i * wordBytes,
                             rng.uniformInt(0, 255));
        d = StreamDesc::indirect(Space::Dram, idx, 24, Space::Dram,
                                 data);
        break;
      }
      case DescCase::IndirectSpmData: {
        const Addr idx = rig.img.allocWords(24);
        for (int i = 0; i < 24; ++i)
            rig.img.writeInt(idx + i * wordBytes,
                             rng.uniformInt(0, 200));
        d = StreamDesc::indirect(Space::Dram, idx, 24, Space::Spm, 0);
        break;
      }
      case DescCase::Csr:
      case DescCase::CsrGather: {
        const std::uint64_t segs = 7;
        const Addr ptr = rig.img.allocWords(segs + 1);
        std::int64_t off = 0;
        for (std::uint64_t s = 0; s <= segs; ++s) {
            rig.img.writeInt(ptr + s * wordBytes, off);
            off += rng.uniformInt(1, 9);
        }
        const Addr col = rig.img.allocWords(
            static_cast<std::uint64_t>(off));
        for (std::int64_t i = 0; i < off; ++i)
            rig.img.writeInt(col + i * wordBytes,
                             rng.uniformInt(0, 255));
        if (GetParam() == DescCase::Csr) {
            d = StreamDesc::csr(Space::Dram, ptr, segs, col);
        } else {
            d = StreamDesc::csrGather(Space::Dram, ptr, col, segs,
                                      Space::Dram, data);
        }
        break;
      }
      case DescCase::CsrIndirectSeg: {
        const std::uint64_t numSegs = 10;
        const Addr ptr = rig.img.allocWords(numSegs + 1);
        std::int64_t off = 0;
        for (std::uint64_t s = 0; s <= numSegs; ++s) {
            rig.img.writeInt(ptr + s * wordBytes, off);
            off += rng.uniformInt(1, 6);
        }
        const Addr segData =
            rig.img.allocWords(static_cast<std::uint64_t>(off));
        for (std::int64_t i = 0; i < off; ++i)
            rig.img.writeInt(segData + i * wordBytes,
                             rng.uniformInt(0, 99));
        const Addr list = rig.img.allocWords(5);
        const std::int64_t ids[] = {9, 0, 4, 4, 2};
        for (int i = 0; i < 5; ++i)
            rig.img.writeInt(list + i * wordBytes, ids[i]);
        d = StreamDesc::csrIndirectSeg(Space::Dram, list, 5, ptr,
                                       Space::Dram, segData);
        break;
      }
      case DescCase::Repeat:
        d = StreamDesc::linear(Space::Dram, data, 20);
        d.repeat = 4;
        d.fixedSegLen = 5;
        break;
    }

    const auto want = expandStream(d, rig.img, &rig.spm);

    ReadEngine re("re", rig.img, &rig.spm, &rig.port, &rig.pipes);
    rig.sim.add(&re);
    TokenFifo dest(8);
    re.program(d, &dest);
    const auto got = rig.drain(re, dest);
    expectTokensEqual(got, want);
}

TEST(ReadEngine, SleepsWhileBlockedOnDram)
{
    Rig rig;
    const Addr a = rig.img.allocWords(64);
    for (int i = 0; i < 64; ++i)
        rig.img.writeInt(a + i * wordBytes, i);

    struct CountingEngine : ReadEngine
    {
        using ReadEngine::ReadEngine;
        std::uint64_t ticks = 0;

        void
        tick(Tick now) override
        {
            ++ticks;
            ReadEngine::tick(now);
        }
    };
    CountingEngine re("re", rig.img, &rig.spm, &rig.port, &rig.pipes);
    rig.sim.add(&re);
    TokenFifo dest(0);
    const auto d = StreamDesc::linear(Space::Dram, a, 64);
    re.program(d, &dest);
    const Tick start = rig.sim.now();
    expectTokensEqual(rig.drain(re, dest),
                      expandStream(d, rig.img, &rig.spm));

    // Eight lines, at most four in flight, 40-cycle DRAM latency:
    // most cycles only wait, and line arrivals wake the engine.
    EXPECT_LT(re.ticks * 2, rig.sim.now() - start)
        << "engine ticked through its DRAM waits";
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ReadEngineMatchesGolden,
    ::testing::Values(DescCase::LinearDram, DescCase::LinearStride,
                      DescCase::LinearLoops, DescCase::LinearSpm,
                      DescCase::Strided2D, DescCase::RowRepeat,
                      DescCase::Indirect, DescCase::IndirectSpmData,
                      DescCase::Csr, DescCase::CsrGather,
                      DescCase::CsrIndirectSeg, DescCase::Repeat));

TEST(ReadEngine, PipeInDeliversForwardedTokens)
{
    Rig rig;
    ReadEngine re("re", rig.img, &rig.spm, &rig.port, &rig.pipes);
    rig.sim.add(&re);
    TokenFifo dest(8);
    re.program(StreamDesc::pipeIn(42), &dest);

    std::vector<Token> sent;
    for (int i = 0; i < 20; ++i) {
        sent.push_back(Token{fromInt(i),
                             i == 19 ? std::uint8_t(kSegEnd |
                                                    kStreamEnd)
                                     : std::uint8_t(0)});
    }
    rig.pipes.deliver(42, {sent.begin(), sent.begin() + 7});
    rig.sim.step(3);
    rig.pipes.deliver(42, {sent.begin() + 7, sent.end()});
    const auto got = rig.drain(re, dest);
    expectTokensEqual(got, sent);
}

TEST(ReadEngine, RejectsZeroLengthStreams)
{
    Rig rig;
    ReadEngine re("re", rig.img, &rig.spm, &rig.port, &rig.pipes);
    TokenFifo dest(8);
    EXPECT_THROW(
        re.program(StreamDesc::linear(Space::Dram, 64, 0), &dest),
        FatalError);
}

TEST(ReadEngine, BackpressureFromSlowConsumer)
{
    Rig rig;
    const Addr a = rig.img.allocWords(64);
    for (int i = 0; i < 64; ++i)
        rig.img.writeInt(a + i * wordBytes, i);

    ReadEngine re("re", rig.img, &rig.spm, &rig.port, &rig.pipes);
    rig.sim.add(&re);
    TokenFifo dest(2);
    re.program(StreamDesc::linear(Space::Dram, a, 64), &dest);

    // Pop only one token every 8 cycles; nothing may be lost.
    std::vector<Token> got;
    for (int step = 0; step < 4000 && re.active(); ++step) {
        rig.sim.step(1);
        if (step % 8 == 0 && !dest.empty())
            got.push_back(dest.pop());
    }
    while (!dest.empty())
        got.push_back(dest.pop());
    ASSERT_EQ(got.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(asInt(got[i].value), i);
}

TEST(ReadEngine, SinkModeModelsTrafficWithoutDelivery)
{
    Rig rig;
    const Addr a = rig.img.allocWords(64);
    ReadEngine re("re", rig.img, &rig.spm, &rig.port, &rig.pipes);
    rig.sim.add(&re);
    re.program(StreamDesc::linear(Space::Dram, a, 64), nullptr);
    rig.sim.run(100000);
    EXPECT_FALSE(re.active());
    EXPECT_EQ(re.tokensDelivered(), 64u);
    EXPECT_EQ(rig.port.memory().linesRead(), 8u);
}

// --- write engine ----------------------------------------------------------

struct CapturePipeTx : public PipeTxIf
{
    std::vector<std::vector<Token>> chunks;
    bool accept = true;

    bool
    sendChunk(std::uint64_t, std::uint64_t,
              const std::vector<Token>& toks) override
    {
        if (!accept)
            return false;
        chunks.push_back(toks);
        return true;
    }
};

TEST(WriteEngine, WritesTokensToMemoryInOrder)
{
    Rig rig;
    CapturePipeTx tx;
    WriteEngine we("we", rig.img, &rig.spm, &rig.port, &tx);
    rig.sim.add(&we);

    const Addr out = rig.img.allocWords(32);
    TokenFifo src(64);
    for (int i = 0; i < 32; ++i) {
        src.push(Token{fromInt(i * 3),
                       i == 31 ? std::uint8_t(kSegEnd | kStreamEnd)
                               : std::uint8_t(0)});
    }
    WriteDesc d;
    d.base = out;
    we.program(d, &src);
    rig.sim.run(10000);
    EXPECT_FALSE(we.active());
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(rig.img.readInt(out + i * wordBytes), i * 3);
    EXPECT_EQ(rig.port.memory().linesWritten(), 4u)
        << "32 sequential words = 4 coalesced lines";
}

TEST(WriteEngine, StridedWrites)
{
    Rig rig;
    CapturePipeTx tx;
    WriteEngine we("we", rig.img, &rig.spm, &rig.port, &tx);
    rig.sim.add(&we);

    const Addr out = rig.img.allocWords(32);
    TokenFifo src(16);
    for (int i = 0; i < 8; ++i) {
        src.push(Token{fromInt(i),
                       i == 7 ? std::uint8_t(kStreamEnd)
                              : std::uint8_t(0)});
    }
    WriteDesc d;
    d.base = out;
    d.strideWords = 4;
    we.program(d, &src);
    rig.sim.run(10000);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(rig.img.readInt(out + i * 4 * wordBytes), i);
}

TEST(WriteEngine, ForwardsPipeChunksAndFinishesOnStreamEnd)
{
    Rig rig;
    CapturePipeTx tx;
    WriteEngine we("we", rig.img, &rig.spm, &rig.port, &tx);
    rig.sim.add(&we);

    const Addr out = rig.img.allocWords(64);
    TokenFifo src(64);
    const int n = 20;
    for (int i = 0; i < n; ++i) {
        src.push(Token{fromInt(i),
                       i == n - 1 ? std::uint8_t(kSegEnd | kStreamEnd)
                                  : std::uint8_t(0)});
    }
    WriteDesc d;
    d.base = out;
    d.pipeDstMask = 1u << 3;
    d.pipeId = 9;
    d.chunkWords = 8;
    we.program(d, &src);
    rig.sim.run(10000);
    EXPECT_FALSE(we.active());

    std::vector<Token> flat;
    for (const auto& c : tx.chunks)
        flat.insert(flat.end(), c.begin(), c.end());
    ASSERT_EQ(flat.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(asInt(flat[i].value), i);
    EXPECT_TRUE(flat.back().streamEnd());
    EXPECT_EQ(tx.chunks.size(), 3u) << "8 + 8 + 4 tokens";
}

TEST(WriteEngine, RetriesWhenPipeTxBackpressured)
{
    Rig rig;
    CapturePipeTx tx;
    tx.accept = false;
    WriteEngine we("we", rig.img, &rig.spm, &rig.port, &tx);
    rig.sim.add(&we);

    TokenFifo src(64);
    for (int i = 0; i < 16; ++i) {
        src.push(Token{fromInt(i),
                       i == 15 ? std::uint8_t(kStreamEnd)
                               : std::uint8_t(0)});
    }
    WriteDesc d;
    d.base = rig.img.allocWords(16);
    d.pipeDstMask = 1;
    d.pipeId = 1;
    we.program(d, &src);
    rig.sim.step(200);
    EXPECT_TRUE(we.active()) << "cannot finish while chunk unsent";
    tx.accept = true;
    rig.sim.run(10000);
    EXPECT_FALSE(we.active());
}

// --- pipe set ---------------------------------------------------------------

TEST(PipeSet, FifoPerPipeAndOccupancyStats)
{
    PipeSet ps;
    ps.deliver(1, {Token{fromInt(1), 0}, Token{fromInt(2), 0}});
    ps.deliver(2, {Token{fromInt(9), 0}});
    EXPECT_TRUE(ps.hasData(1));
    EXPECT_EQ(asInt(ps.pop(1).value), 1);
    EXPECT_EQ(asInt(ps.pop(2).value), 9);
    EXPECT_EQ(asInt(ps.pop(1).value), 2);
    EXPECT_FALSE(ps.hasData(1));
    EXPECT_EQ(ps.totalBuffered(), 0u);

    StatSet stats;
    ps.reportStats(stats, "lane");
    EXPECT_EQ(stats.get("lane.pipeTokens"), 3);
    EXPECT_GE(stats.get("lane.pipeMaxOccupancy"), 2);
}

TEST(PipeSet, ReleaseRequiresDrainedPipe)
{
    PipeSet ps;
    ps.deliver(5, {Token{fromInt(1), 0}});
    EXPECT_THROW(ps.release(5), PanicError);
    ps.pop(5);
    ps.release(5);
    EXPECT_FALSE(ps.hasData(5));
}

// --- word fetcher -------------------------------------------------------------

TEST(WordFetcher, CoalescesSameLineRequests)
{
    Rig rig;
    const Addr a = rig.img.allocWords(8); // one line
    for (int i = 0; i < 8; ++i)
        rig.img.writeInt(a + i * wordBytes, i);

    WordFetcher f(rig.img, nullptr, &rig.port);
    f.reset(Space::Dram);
    for (int i = 0; i < 8; ++i)
        f.push(a + i * wordBytes, 0);
    f.pump(rig.sim.now());
    EXPECT_EQ(f.linesRequested(), 1u);
    EXPECT_EQ(f.outstanding(), 1u);

    // Every slot is Requested: further pumps issue nothing.
    for (int i = 0; i < 3; ++i)
        f.pump(rig.sim.now());
    EXPECT_EQ(f.linesRequested(), 1u);
    EXPECT_EQ(f.outstanding(), 1u);

    for (int step = 0; step < 200 && !f.headReady(); ++step)
        rig.sim.step(1);
    ASSERT_TRUE(f.headReady());
    EXPECT_EQ(f.outstanding(), 0u);

    // Every slot is Ready: pumps still issue nothing.
    f.pump(rig.sim.now());
    EXPECT_EQ(f.linesRequested(), 1u)
        << "eight same-line words need one request";

    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(asInt(f.popHead().value), i);
    EXPECT_TRUE(f.settled());
}

TEST(WordFetcher, IdlePumpClaimsNoScratchpadPort)
{
    Rig rig;
    for (int i = 0; i < 4; ++i)
        rig.spm.write(static_cast<Addr>(i), fromInt(10 + i));

    WordFetcher f(rig.img, &rig.spm, nullptr);
    f.reset(Space::Spm);
    for (int i = 0; i < 4; ++i)
        f.push(static_cast<Addr>(i), 0);
    for (int step = 0; step < 50; ++step) {
        f.pump(rig.sim.now());
        rig.sim.step(1);
    }
    EXPECT_EQ(f.spmReads(), 4u);
    ASSERT_TRUE(f.headReady());

    // Every slot is Ready: a pump must leave this cycle's SPM ports
    // to other clients.
    const Tick now = rig.sim.now();
    f.pump(now);
    EXPECT_EQ(f.spmReads(), 4u);
    std::uint32_t freePorts = 0;
    while (rig.spm.tryAccess(now))
        ++freePorts;
    EXPECT_EQ(freePorts, 4u) << "an idle pump claimed a port";
}

TEST(WordFetcher, InOrderDeliveryAcrossBanks)
{
    Rig rig;
    Rng rng(3);
    const Addr a = rig.img.allocWords(512);
    for (int i = 0; i < 512; ++i)
        rig.img.writeInt(a + i * wordBytes, i);

    WordFetcher f(rig.img, nullptr, &rig.port);
    f.reset(Space::Dram);
    std::vector<std::int64_t> want, got;
    int pushed = 0;
    for (int step = 0; step < 5000 && got.size() < 40; ++step) {
        if (pushed < 40 && !f.windowFull()) {
            const auto w = rng.uniformInt(0, 511);
            want.push_back(w);
            f.push(a + static_cast<Addr>(w) * wordBytes, 0);
            ++pushed;
        }
        f.pump(rig.sim.now());
        rig.sim.step(1);
        while (f.headReady())
            got.push_back(asInt(f.popHead().value));
    }
    EXPECT_EQ(got, want) << "values must pop in push order";
}

} // namespace
} // namespace ts
