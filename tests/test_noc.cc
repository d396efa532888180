/**
 * @file
 * Unit tests for the mesh NoC: delivery, ordering, routing distance,
 * serialization, back-pressure, link credit return, blocked-router
 * sleep under a hotspot, and multicast
 * (exactly-once delivery to every destination, tree traffic savings).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "noc/noc.hh"

namespace ts
{
namespace
{

Packet
mkPkt(std::uint32_t src, std::uint64_t dstMask,
      std::uint32_t sizeWords = 1, int tag = 0)
{
    Packet p;
    p.src = src;
    p.dstMask = dstMask;
    p.kind = PktKind::Generic;
    p.sizeWords = sizeWords;
    p.payload = static_cast<std::uint64_t>(tag);
    return p;
}

struct MeshFixture
{
    Simulator sim;
    Noc noc;

    explicit MeshFixture(std::uint32_t w = 4, std::uint32_t h = 4)
        : noc(sim, NocConfig{w, h, 4, 2})
    {}

    /** Step long enough for all in-flight packets to arrive
     *  (delivered packets sit in eject channels, so quiescence-based
     *  run() is not applicable here). */
    void drain() { sim.step(500); }
};

TEST(Noc, UnicastDelivery)
{
    MeshFixture m;
    ASSERT_TRUE(m.noc.inject(mkPkt(0, Packet::unicast(15), 1, 42)));
    m.drain();
    auto& ej = m.noc.eject(15);
    ASSERT_FALSE(ej.empty());
    const Packet p = ej.pop();
    EXPECT_EQ(p.src, 0u);
    EXPECT_EQ(std::get<std::uint64_t>(p.payload), 42u);
    EXPECT_EQ(m.noc.delivered(), 1u);
}

TEST(Noc, SelfDelivery)
{
    MeshFixture m;
    ASSERT_TRUE(m.noc.inject(mkPkt(5, Packet::unicast(5))));
    m.drain();
    EXPECT_EQ(m.noc.eject(5).size(), 1u);
}

TEST(Noc, LatencyScalesWithHopDistance)
{
    // One-hop and six-hop packets injected together: the farther one
    // must arrive strictly later.
    MeshFixture m;
    m.noc.inject(mkPkt(0, Packet::unicast(1)));
    m.noc.inject(mkPkt(0, Packet::unicast(15)));
    Tick nearAt = 0, farAt = 0;
    for (Tick t = 0; t < 200 && (nearAt == 0 || farAt == 0); ++t) {
        m.sim.step(1);
        if (nearAt == 0 && !m.noc.eject(1).empty())
            nearAt = t;
        if (farAt == 0 && !m.noc.eject(15).empty())
            farAt = t;
    }
    ASSERT_GT(nearAt, 0u);
    ASSERT_GT(farAt, 0u);
    EXPECT_GT(farAt, nearAt);
    EXPECT_GE(farAt - nearAt,
              m.noc.hopDistance(0, 15) - m.noc.hopDistance(0, 1) - 1);
}

TEST(Noc, HopDistanceIsManhattan)
{
    MeshFixture m;
    EXPECT_EQ(m.noc.hopDistance(0, 15), 6u); // (0,0) -> (3,3)
    EXPECT_EQ(m.noc.hopDistance(5, 5), 0u);
    EXPECT_EQ(m.noc.hopDistance(0, 3), 3u);
}

TEST(Noc, InOrderDeliveryPerPath)
{
    MeshFixture m;
    for (int i = 0; i < 8; ++i) {
        // Injection channel has finite capacity: step to drain it.
        while (!m.noc.inject(mkPkt(0, Packet::unicast(15), 1, i)))
            m.sim.step(1);
    }
    m.drain();
    auto& ej = m.noc.eject(15);
    ASSERT_EQ(ej.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(std::get<std::uint64_t>(ej.pop().payload),
                  static_cast<std::uint64_t>(i));
}

TEST(Noc, MulticastReachesEveryDestinationExactlyOnce)
{
    MeshFixture m;
    std::uint64_t mask = 0;
    for (const std::uint32_t d : {1u, 3u, 7u, 12u, 15u})
        mask |= Packet::unicast(d);
    ASSERT_TRUE(m.noc.inject(mkPkt(0, mask, 8, 99)));
    m.drain();
    for (const std::uint32_t d : {1u, 3u, 7u, 12u, 15u}) {
        ASSERT_EQ(m.noc.eject(d).size(), 1u) << "node " << d;
        EXPECT_EQ(
            std::get<std::uint64_t>(m.noc.eject(d).pop().payload),
            99u);
    }
    for (const std::uint32_t d : {0u, 2u, 4u, 5u, 6u, 8u, 9u, 10u,
                                  11u, 13u, 14u}) {
        EXPECT_TRUE(m.noc.eject(d).empty()) << "node " << d;
    }
    EXPECT_EQ(m.noc.delivered(), 5u);
}

TEST(Noc, MulticastTreeSavesTrafficVersusUnicasts)
{
    const std::uint64_t all15 = (1u << 16) - 2; // nodes 1..15
    std::uint64_t mcHops = 0, ucHops = 0;
    {
        MeshFixture m;
        m.noc.inject(mkPkt(0, all15, 8));
        m.drain();
        mcHops = m.noc.wordHops();
    }
    {
        MeshFixture m;
        for (std::uint32_t d = 1; d < 16; ++d) {
            while (!m.noc.inject(mkPkt(0, Packet::unicast(d), 8)))
                m.sim.step(1);
        }
        m.drain();
        ucHops = m.noc.wordHops();
    }
    EXPECT_LT(mcHops, ucHops / 2)
        << "tree multicast should cut word-hops by well over half";
}

TEST(Noc, BackpressureNeverDropsPackets)
{
    MeshFixture m;
    int accepted = 0;
    // Flood one destination from three sources.
    for (int round = 0; round < 50; ++round) {
        for (const std::uint32_t s : {0u, 3u, 12u}) {
            if (m.noc.inject(mkPkt(s, Packet::unicast(15), 4)))
                ++accepted;
        }
        m.sim.step(1);
    }
    m.drain();
    EXPECT_EQ(m.noc.eject(15).size(),
              static_cast<std::size_t>(accepted));
}

TEST(Noc, SerializationDelaysLargePackets)
{
    // Two same-size routes; one packet is 16 words vs 1 word.  With
    // linkWords=2, the large packet needs 8 cycles per hop.
    Tick smallAt = 0, bigAt = 0;
    {
        MeshFixture m;
        m.noc.inject(mkPkt(0, Packet::unicast(3), 1));
        for (Tick t = 0; t < 200 && smallAt == 0; ++t) {
            m.sim.step(1);
            if (!m.noc.eject(3).empty())
                smallAt = t;
        }
    }
    {
        MeshFixture m;
        m.noc.inject(mkPkt(0, Packet::unicast(3), 16));
        for (Tick t = 0; t < 200 && bigAt == 0; ++t) {
            m.sim.step(1);
            if (!m.noc.eject(3).empty())
                bigAt = t;
        }
    }
    ASSERT_GT(smallAt, 0u);
    ASSERT_GT(bigAt, 0u);
    EXPECT_GT(bigAt, smallAt);
}

/** Injects one-word packets from @p src to @p dst every cycle the
 *  injection channel has room, until @p n are accepted. */
class StreamSource : public Ticked
{
  public:
    StreamSource(Noc& noc, std::uint32_t src, std::uint32_t dst, int n)
        : Ticked("source"), noc_(noc), src_(src), dst_(dst), left_(n)
    {}

    void
    tick(Tick) override
    {
        if (left_ > 0 && noc_.inject(mkPkt(src_, Packet::unicast(dst_))))
            --left_;
    }

    bool busy() const override { return left_ > 0; }

  private:
    Noc& noc_;
    std::uint32_t src_, dst_;
    int left_;
};

/**
 * Cycles at which a saturating stream of @p n packets from node
 * @p src reaches its neighbor @p dst on a 2x1 mesh whose channels
 * hold one packet, so the link's slot turnaround sets the rate.
 */
std::vector<Tick>
oneHopDeliveries(std::uint32_t src, std::uint32_t dst, int n)
{
    Simulator sim;
    Noc noc(sim, NocConfig{2, 1, 1, 2});
    // Registered after the routers, so it refills the injection slot
    // in the cycle the source router drains it.
    StreamSource source(noc, src, dst, n);
    sim.add(&source);
    std::vector<Tick> at;
    for (Tick t = 0; t < 100 && at.size() < static_cast<std::size_t>(n); ++t) {
        sim.step(1);
        for (auto& ej = noc.eject(dst); !ej.empty(); ej.pop())
            at.push_back(t);
    }
    return at;
}

TEST(Noc, LinksReturnCreditsOneCycleLate)
{
    // A freed link slot reaches the upstream router one cycle after
    // the downstream router pops it, so a saturated one-hop stream
    // delivers every other cycle.  Router 0 ticks before router 1,
    // so without credit return the westward stream (1 -> 0) would
    // reuse each slot in the cycle it is freed and deliver every
    // cycle; with it, both directions see the same timing.
    const std::vector<Tick> want = {2, 4, 6, 8, 10, 12};
    EXPECT_EQ(oneHopDeliveries(0, 1, 6), want);
    EXPECT_EQ(oneHopDeliveries(1, 0, 6), want);
}

/** Sends @p n packets of 1-3 words to a hotspot node, one in four
 *  multicast to a second node too; a refused injection arms the
 *  injection queue's space wake and sleeps. */
class HotspotSource : public Ticked
{
  public:
    HotspotSource(Noc& noc, std::uint32_t src, int n)
        : Ticked("source" + std::to_string(src)), noc_(noc), src_(src),
          left_(n)
    {}

    void
    tick(Tick) override
    {
        if (left_ > 0) {
            const int i = left_;
            const std::uint64_t dst =
                i % 4 == 3 ? Packet::unicast(5) | Packet::unicast(10)
                           : Packet::unicast(5);
            const auto words = static_cast<std::uint32_t>(1 + i % 3);
            if (noc_.inject(mkPkt(src_, dst, words, i))) {
                --left_;
                return;
            }
            noc_.armInjectSpaceWake(src_, this);
        }
        sleepOnWake();
    }

    bool busy() const override { return left_ > 0; }

  private:
    Noc& noc_;
    std::uint32_t src_;
    int left_;
};

struct Arrival
{
    Tick at;
    std::uint32_t node, src;
    std::uint64_t tag;
    bool operator==(const Arrival&) const = default;
};

/** Every other node of a 4x4 mesh with two-packet links floods node
 *  5; returns each arrival at nodes 5 and 10, and the ticks run. */
std::pair<std::vector<Arrival>, double>
hotspotArrivals(bool fastForward)
{
    Simulator sim;
    sim.setFastForward(fastForward);
    Noc noc(sim, NocConfig{4, 4, 2, 2});
    std::vector<std::unique_ptr<HotspotSource>> sources;
    for (std::uint32_t n = 0; n < 16; ++n) {
        if (n == 5)
            continue;
        sources.push_back(std::make_unique<HotspotSource>(noc, n, 12));
        sim.add(sources.back().get());
    }
    std::vector<Arrival> got;
    for (Tick t = 0; t < 2000 && got.size() < 15 * 15; ++t) {
        sim.step(1);
        for (const std::uint32_t node : {5u, 10u}) {
            for (auto& ej = noc.eject(node); !ej.empty(); ej.pop()) {
                got.push_back(Arrival{
                    t, node, ej.front().src,
                    std::get<std::uint64_t>(ej.front().payload)});
            }
        }
    }
    StatSet stats;
    sim.reportStats(stats);
    return {got, stats.get("sim.host.ticksExecuted")};
}

TEST(Noc, HotspotDeliversOnTheNaiveCycles)
{
    // Routers blocked on full links sleep until the credit returns or
    // the link frees, and sources until their injection queue drains;
    // every packet must still arrive on the cycle naive ticking gives.
    const auto [fast, fastTicks] = hotspotArrivals(true);
    const auto [naive, naiveTicks] = hotspotArrivals(false);
    // 15 sources x 12 packets, 3 of each 12 also to node 10.
    EXPECT_EQ(fast.size(), 15u * 15u);
    EXPECT_TRUE(fast == naive)
        << "a blocked router or source slept through a cycle it could "
           "have moved on";
    EXPECT_LT(fastTicks, naiveTicks / 2);
}

TEST(Noc, RejectsBadMeshes)
{
    Simulator sim;
    EXPECT_THROW(Noc(sim, NocConfig{0, 4, 4, 2}), FatalError);
    EXPECT_THROW(Noc(sim, NocConfig{9, 8, 4, 2}), FatalError);
}

TEST(Noc, WideMeshRoutesAcrossBothDimensions)
{
    MeshFixture m(8, 2);
    ASSERT_TRUE(m.noc.inject(mkPkt(0, Packet::unicast(15), 2, 5)));
    m.drain();
    ASSERT_EQ(m.noc.eject(15).size(), 1u);
}

} // namespace
} // namespace ts
