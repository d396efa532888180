/**
 * @file
 * Unit tests for the memory substrate: functional image, banked DRAM
 * timing (latency, bank conflicts, bandwidth, back-pressure), and the
 * scratchpad port model.
 */

#include <gtest/gtest.h>

#include "mem/main_memory.hh"
#include "mem/mem_image.hh"
#include "mem/scratchpad.hh"
#include "sim/simulator.hh"

namespace ts
{
namespace
{

TEST(MemImage, ReadWriteRoundTrip)
{
    MemImage img;
    img.writeInt(64, -7);
    img.writeDouble(72, 2.5);
    EXPECT_EQ(img.readInt(64), -7);
    EXPECT_DOUBLE_EQ(img.readDouble(72), 2.5);
    EXPECT_EQ(img.readWord(128), 0u) << "untouched memory reads 0";
}

TEST(MemImage, UnalignedAccessPanics)
{
    MemImage img;
    EXPECT_THROW(img.readWord(3), PanicError);
    EXPECT_THROW(img.writeWord(9, 1), PanicError);
}

TEST(MemImage, AllocationsAreLineAlignedAndDisjoint)
{
    MemImage img;
    const Addr a = img.allocWords(5);
    const Addr b = img.allocWords(100);
    EXPECT_EQ(a % lineBytes, 0u);
    EXPECT_EQ(b % lineBytes, 0u);
    EXPECT_GE(b, a + 5 * wordBytes);
    img.writeInt(a, 1);
    img.writeInt(b, 2);
    EXPECT_EQ(img.readInt(a), 1);
}

TEST(MemImage, SpansPageBoundaries)
{
    MemImage img;
    const Addr nearBoundary = 4096 * wordBytes - 2 * wordBytes;
    std::vector<Word> vals;
    for (int i = 0; i < 8; ++i)
        vals.push_back(fromInt(i + 1));
    img.writeWords(nearBoundary, vals);
    const auto got = img.readWords(nearBoundary, 8);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(asInt(got[i]), i + 1);
}

/** Rig with request/response channels around a MainMemory. */
struct MemRig
{
    Simulator sim;
    Channel<MemReq>& req;
    Channel<MemResp>& resp;
    MainMemory mem;

    explicit MemRig(MainMemoryConfig cfg = MainMemoryConfig())
        : req(sim.makeChannel<MemReq>("req", 64)),
          resp(sim.makeChannel<MemResp>("resp", 64)),
          mem(sim, cfg, req, resp)
    {
        sim.add(&mem);
    }

    MemReq
    read(Addr line, std::uint64_t tag)
    {
        MemReq r;
        r.lineAddr = line;
        r.tag = tag;
        return r;
    }
};

TEST(MainMemory, ReadLatencyIsServiceLatency)
{
    MainMemoryConfig cfg;
    cfg.serviceLatency = 40;
    MemRig rig(cfg);
    ASSERT_TRUE(rig.req.push(rig.read(0, 1)));
    Tick arrival = 0;
    for (Tick t = 0; t < 200; ++t) {
        rig.sim.step(1);
        if (!rig.resp.empty()) {
            arrival = t;
            break;
        }
    }
    // 1 commit + issue + 40 latency (+1 response commit).
    EXPECT_GE(arrival, 40u);
    EXPECT_LE(arrival, 45u);
    EXPECT_EQ(rig.resp.pop().tag, 1u);
}

TEST(MainMemory, SameBankRequestsSerialize)
{
    MainMemoryConfig cfg;
    cfg.bankOccupancy = 4;
    MemRig rig(cfg);
    // Two lines in the same bank (same address modulo stride).
    const Addr stride = lineBytes * cfg.numBanks;
    rig.req.push(rig.read(0, 1));
    rig.req.push(rig.read(stride, 2));
    std::vector<Tick> at;
    for (Tick t = 0; t < 200 && at.size() < 2; ++t) {
        rig.sim.step(1);
        while (!rig.resp.empty()) {
            rig.resp.pop();
            at.push_back(t);
        }
    }
    ASSERT_EQ(at.size(), 2u);
    EXPECT_GE(at[1] - at[0], cfg.bankOccupancy - 1);
}

TEST(MainMemory, DifferentBanksOverlap)
{
    MainMemoryConfig cfg;
    cfg.bankOccupancy = 8;
    cfg.issueWidth = 2;
    MemRig rig(cfg);
    rig.req.push(rig.read(0, 1));
    rig.req.push(rig.read(lineBytes, 2)); // adjacent line: other bank
    std::vector<Tick> at;
    for (Tick t = 0; t < 200 && at.size() < 2; ++t) {
        rig.sim.step(1);
        while (!rig.resp.empty()) {
            rig.resp.pop();
            at.push_back(t);
        }
    }
    ASSERT_EQ(at.size(), 2u);
    EXPECT_LE(at[1] - at[0], 1u) << "distinct banks issue together";
}

TEST(MainMemory, BandwidthBoundedByIssueWidth)
{
    MainMemoryConfig cfg;
    cfg.issueWidth = 2;
    cfg.bankOccupancy = 1;
    cfg.numBanks = 64;
    MemRig rig(cfg);
    // 32 reads over distinct banks: at most 2 issues per cycle means
    // the last response is >= 16 cycles after the first.
    int sent = 0;
    std::vector<Tick> at;
    for (Tick t = 0; t < 500 && at.size() < 32; ++t) {
        while (sent < 32 &&
               rig.req.push(rig.read(sent * lineBytes, sent))) {
            ++sent;
        }
        rig.sim.step(1);
        while (!rig.resp.empty()) {
            rig.resp.pop();
            at.push_back(t);
        }
    }
    ASSERT_EQ(at.size(), 32u);
    EXPECT_GE(at.back() - at.front(), 14u);
}

TEST(MainMemory, WritesConsumeBankTimeButNoResponse)
{
    MemRig rig;
    MemReq w;
    w.lineAddr = 0;
    w.write = true;
    rig.req.push(w);
    rig.sim.run(500);
    EXPECT_TRUE(rig.resp.empty());
    EXPECT_EQ(rig.mem.linesWritten(), 1u);
    EXPECT_EQ(rig.mem.linesRead(), 0u);
}

TEST(MainMemory, StatsTrackTraffic)
{
    MemRig rig;
    for (int i = 0; i < 5; ++i)
        rig.req.push(rig.read(i * lineBytes, i));
    rig.sim.step(300);
    while (!rig.resp.empty())
        rig.resp.pop();
    StatSet stats;
    rig.mem.reportStats(stats);
    EXPECT_EQ(stats.get("mem.linesRead"), 5);
}

/** Pops one response on every k-th cycle, recording (tag, cycle). */
class PacedRespSink : public Ticked
{
  public:
    PacedRespSink(Channel<MemResp>& ch, Tick k)
        : Ticked("sink"), ch_(ch), k_(k)
    {
    }

    void
    tick(Tick now) override
    {
        if (now % k_ == 0 && !ch_.empty())
            got.emplace_back(ch_.pop().tag, now);
        sleepUntil((now / k_ + 1) * k_);
    }

    bool busy() const override { return false; }

    std::vector<std::pair<std::uint64_t, Tick>> got;

  private:
    Channel<MemResp>& ch_;
    Tick k_;
};

/** 24 reads over 4 banks through a capacity-1 response channel that
 *  a sink walked ahead of the memory (as the memory node is) pops
 *  every 3 cycles, so most responses are refused and held. */
std::vector<std::pair<std::uint64_t, Tick>>
heldResponses(Tick serviceLatency, bool fastForward)
{
    Simulator sim;
    sim.setFastForward(fastForward);
    auto& req = sim.makeChannel<MemReq>("req", 64);
    auto& resp = sim.makeChannel<MemResp>("resp", 1);
    MainMemoryConfig cfg;
    cfg.serviceLatency = serviceLatency;
    cfg.bankOccupancy = 5;
    cfg.issueWidth = 2;
    cfg.numBanks = 4;
    PacedRespSink sink(resp, 3);
    MainMemory mem(sim, cfg, req, resp);
    sim.add(&sink);
    sim.add(&mem);
    for (std::uint64_t i = 0; i < 24; ++i) {
        MemReq r;
        r.lineAddr = i * lineBytes;
        r.tag = i;
        EXPECT_TRUE(req.push(r));
    }
    sim.run(100000);
    return sink.got;
}

TEST(MainMemory, HeldResponsesKeepTheRetryOrderAndCycles)
{
    // Recorded from the model that retried every refused response
    // with its own one-cycle event.  The refusals of one cycle retry
    // ahead of older ones when responses are scheduled two or more
    // cycles out, and behind them at serviceLatency 1, where the held
    // block retries before that cycle's fresh responses.
    using Got = std::vector<std::pair<std::uint64_t, Tick>>;
    const std::pair<Tick, Got> want[] = {
        {1,
         {{0, 3}, {1, 6}, {2, 9}, {3, 12}, {4, 15}, {5, 18}, {6, 21},
          {7, 24}, {8, 27}, {9, 30}, {10, 33}, {11, 36}, {12, 39},
          {13, 42}, {14, 45}, {15, 48}, {16, 51}, {17, 54}, {18, 57},
          {19, 60}, {20, 63}, {21, 66}, {22, 69}, {23, 72}}},
        {2,
         {{0, 6}, {2, 9}, {6, 12}, {8, 15}, {10, 18}, {14, 21},
          {15, 24}, {18, 27}, {20, 30}, {22, 33}, {23, 36}, {21, 39},
          {19, 42}, {16, 45}, {17, 48}, {12, 51}, {13, 54}, {11, 57},
          {9, 60}, {7, 63}, {4, 66}, {5, 69}, {3, 72}, {1, 75}}},
        {40,
         {{0, 42}, {2, 45}, {4, 48}, {6, 51}, {10, 54}, {11, 57},
          {14, 60}, {16, 63}, {18, 66}, {22, 69}, {23, 72}, {20, 75},
          {21, 78}, {19, 81}, {17, 84}, {15, 87}, {12, 90}, {13, 93},
          {8, 96}, {9, 99}, {7, 102}, {5, 105}, {3, 108}, {1, 111}}},
    };
    for (const auto& [latency, expected] : want) {
        for (const bool ff : {true, false}) {
            EXPECT_EQ(heldResponses(latency, ff), expected)
                << "serviceLatency " << latency
                << (ff ? ", fast-forward" : ", naive");
        }
    }
}

TEST(Scratchpad, PortBudgetPerCycle)
{
    Scratchpad spm("spm", ScratchpadConfig{256, 2});
    EXPECT_TRUE(spm.tryAccess(10));
    EXPECT_TRUE(spm.tryAccess(10));
    EXPECT_FALSE(spm.tryAccess(10)) << "two ports per cycle";
    EXPECT_TRUE(spm.tryAccess(11)) << "budget refreshes";
}

TEST(Scratchpad, ReadWriteAndBounds)
{
    Scratchpad spm("spm", ScratchpadConfig{64, 4});
    spm.write(5, fromInt(99));
    EXPECT_EQ(asInt(spm.read(5)), 99);
    EXPECT_THROW(spm.read(64), PanicError);
    EXPECT_THROW(spm.write(70, 0), PanicError);
}

TEST(Scratchpad, BumpAllocatorExhausts)
{
    Scratchpad spm("spm", ScratchpadConfig{64, 4});
    EXPECT_EQ(spm.alloc(32), 0u);
    EXPECT_EQ(spm.alloc(32), 32u);
    EXPECT_THROW(spm.alloc(1), FatalError);
    spm.resetAlloc();
    EXPECT_EQ(spm.alloc(10), 0u);
}

} // namespace
} // namespace ts
