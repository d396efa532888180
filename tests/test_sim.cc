/**
 * @file
 * Unit tests for the simulation kernel: channels (two-phase
 * visibility, capacity, credit return, space wakes), event queue
 * ordering, simulator quiescence, wake-target dedup, RNG determinism
 * and distributions, statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.hh"
#include "sim/ring.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"

namespace ts
{
namespace
{

TEST(Channel, ValuesBecomeVisibleAfterCommitOnly)
{
    Channel<int> ch("c", 4);
    EXPECT_TRUE(ch.push(1));
    EXPECT_TRUE(ch.empty()) << "pushed value visible before commit";
    ch.commit();
    ASSERT_FALSE(ch.empty());
    EXPECT_EQ(ch.front(), 1);
    EXPECT_EQ(ch.pop(), 1);
    EXPECT_TRUE(ch.empty());
}

TEST(Channel, CapacityCountsStagedAndVisible)
{
    Channel<int> ch("c", 2);
    EXPECT_TRUE(ch.push(1));
    EXPECT_TRUE(ch.push(2));
    EXPECT_FALSE(ch.push(3)) << "staged values must count";
    ch.commit();
    EXPECT_FALSE(ch.push(3)) << "visible values must count";
    ch.pop();
    EXPECT_TRUE(ch.push(3));
}

TEST(Channel, UnboundedWhenCapacityZero)
{
    Channel<int> ch("c", 0);
    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(ch.push(i));
    ch.commit();
    EXPECT_EQ(ch.size(), 1000u);
    EXPECT_EQ(ch.maxOccupancy(), 1000u);
}

TEST(Channel, FifoOrderPreserved)
{
    Channel<int> ch("c", 0);
    for (int i = 0; i < 10; ++i)
        ch.push(i);
    ch.commit();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(ch.pop(), i);
}

TEST(Channel, QuiescentTracksBothPhases)
{
    Channel<int> ch("c", 4);
    EXPECT_TRUE(ch.quiescent());
    ch.push(1);
    EXPECT_FALSE(ch.quiescent());
    ch.commit();
    EXPECT_FALSE(ch.quiescent());
    ch.pop();
    EXPECT_TRUE(ch.quiescent());
}

TEST(EventQueue, FiresInTimeThenInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); });
    eq.schedule(3, [&] { order.push_back(1); });
    eq.schedule(5, [&] { order.push_back(3); });
    eq.fireUpTo(2);
    EXPECT_TRUE(order.empty());
    eq.fireUpTo(5);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CallbackMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(2, [&] { ++fired; });
    });
    eq.fireUpTo(1);
    EXPECT_EQ(fired, 1);
    eq.fireUpTo(2);
    EXPECT_EQ(fired, 2);
}

/** A component that counts down for N cycles then goes idle. */
class Countdown : public Ticked
{
  public:
    explicit Countdown(int n) : Ticked("countdown"), left_(n) {}

    void
    tick(Tick) override
    {
        if (left_ > 0)
            --left_;
    }

    bool busy() const override { return left_ > 0; }

    int left_;
};

TEST(Simulator, RunsUntilQuiescent)
{
    Simulator sim;
    Countdown c(17);
    sim.add(&c);
    const Tick end = sim.run(1000);
    EXPECT_EQ(end, 17u);
    EXPECT_EQ(c.left_, 0);
}

TEST(Simulator, FatalOnDeadlockWithDiagnosis)
{
    Simulator sim;
    Countdown c(1 << 30);
    sim.add(&c);
    try {
        sim.run(100);
        FAIL() << "expected fatal";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("countdown"),
                  std::string::npos)
            << "diagnosis must name the busy component";
    }
}

TEST(Simulator, EventsKeepSimulationLive)
{
    Simulator sim;
    bool fired = false;
    sim.schedule(50, [&] { fired = true; });
    const Tick end = sim.run(1000);
    EXPECT_TRUE(fired);
    EXPECT_GE(end, 50u);
}

TEST(Simulator, PendingChannelValueBlocksQuiescence)
{
    Simulator sim;
    auto& ch = sim.makeChannel<int>("c", 4);
    EXPECT_TRUE(sim.quiescent());
    ch.push(7);
    EXPECT_FALSE(sim.quiescent());
}

/** Pushes one value into a channel at a fixed cycle, then sleeps. */
class OneShotProducer : public Ticked
{
  public:
    OneShotProducer(Channel<int>* ch, Tick at)
        : Ticked("producer"), ch_(ch), at_(at)
    {
    }

    void
    tick(Tick now) override
    {
        if (now == at_) {
            ch_->push(1);
            done_ = true;
        }
        if (now >= at_)
            sleepOnWake();
        else
            sleepUntil(at_);
    }

    bool busy() const override { return !done_; }

  private:
    Channel<int>* ch_;
    Tick at_;
    bool done_ = false;
};

/** Sleeps until woken; drains its channel and records tick cycles. */
class SleepyConsumer : public Ticked
{
  public:
    explicit SleepyConsumer(Channel<int>* ch)
        : Ticked("consumer"), ch_(ch)
    {
    }

    void
    tick(Tick now) override
    {
        ticks.push_back(now);
        while (ch_ != nullptr && !ch_->empty())
            got.push_back(ch_->pop());
        sleepOnWake();
    }

    bool busy() const override { return false; }

    std::vector<Tick> ticks;
    std::vector<int> got;

  private:
    Channel<int>* ch_;
};

TEST(SimulatorSleep, EventAndChannelWakeSameCycleTickOnce)
{
    // A channel commit and an event firing both wake the consumer at
    // cycle 3; it must tick exactly once that cycle.
    Simulator sim;
    auto& ch = sim.makeChannel<int>("c", 0);
    OneShotProducer prod(&ch, 2);
    SleepyConsumer cons(&ch);
    sim.add(&prod);
    sim.add(&cons);
    ch.addObserver(&cons);
    sim.schedule(3, [] {}, &cons);

    sim.run(1000);

    EXPECT_EQ(std::count(cons.ticks.begin(), cons.ticks.end(),
                         Tick{3}),
              1)
        << "two wake sources in one cycle must yield one tick";
    ASSERT_EQ(cons.got.size(), 1u);
}

/** Busy for a few cycles, then requests a far-future timed wake. */
class Napper : public Ticked
{
  public:
    Napper() : Ticked("napper") {}

    void
    tick(Tick now) override
    {
        if (left_ > 0 && --left_ == 0)
            sleepUntil(now + 1000);
    }

    bool busy() const override { return left_ > 0; }

  private:
    int left_ = 3;
};

TEST(SimulatorSleep, TimedWakePastQuiescenceDoesNotExtendTheRun)
{
    // A pending sleepUntil from a non-busy component must not keep
    // the simulation alive: both modes quiesce at the same cycle.
    Tick fast = 0, naive = 0;
    {
        Simulator sim;
        Napper n;
        sim.add(&n);
        fast = sim.run(100000);
    }
    {
        Simulator sim;
        sim.setFastForward(false);
        Napper n;
        sim.add(&n);
        naive = sim.run(100000);
    }
    EXPECT_EQ(fast, naive);
    EXPECT_LT(fast, 1000u);
}

/** Pushes a burst of values into a channel in one cycle. */
class BurstProducer : public Ticked
{
  public:
    explicit BurstProducer(Channel<int>* ch)
        : Ticked("burst"), ch_(ch)
    {
    }

    void
    tick(Tick now) override
    {
        if (now == 0) {
            ch_->push(1);
            ch_->push(2);
            ch_->push(3);
            done_ = true;
        }
        sleepOnWake();
    }

    bool busy() const override { return !done_; }

  private:
    Channel<int>* ch_;
    bool done_ = false;
};

TEST(SimulatorSleep, MultiPushSameCycleWakesObserverOnceInOrder)
{
    // Three pushes in one cycle mark the channel dirty once: the
    // observer ticks once, seeing all values in FIFO order.
    Simulator sim;
    auto& ch = sim.makeChannel<int>("c", 0);
    BurstProducer prod(&ch);
    SleepyConsumer cons(&ch);
    sim.add(&prod);
    sim.add(&cons);
    ch.addObserver(&cons);

    sim.run(1000);

    EXPECT_EQ(std::count(cons.ticks.begin(), cons.ticks.end(),
                         Tick{1}),
              1);
    ASSERT_EQ(cons.got.size(), 3u);
    EXPECT_EQ(cons.got[0], 1);
    EXPECT_EQ(cons.got[1], 2);
    EXPECT_EQ(cons.got[2], 3);
}

TEST(SimulatorSleep, NaiveAndFastAgreeOnCycleCount)
{
    const auto runOnce = [](bool fastForward) {
        Simulator sim;
        sim.setFastForward(fastForward);
        auto& ch = sim.makeChannel<int>("c", 0);
        OneShotProducer prod(&ch, 5);
        SleepyConsumer cons(&ch);
        sim.add(&prod);
        sim.add(&cons);
        ch.addObserver(&cons);
        return sim.run(1000);
    };
    EXPECT_EQ(runOnce(true), runOnce(false));
}

TEST(EventQueue, LargeCallbacksSpillToTheHeapAndStillFire)
{
    // Captures beyond the small-buffer capacity take the heap path.
    EventQueue eq;
    std::array<std::uint64_t, 16> big{};
    big.fill(7);
    std::uint64_t sum = 0;
    eq.schedule(1, [big, &sum] {
        for (const std::uint64_t v : big)
            sum += v;
    });
    eq.fireUpTo(1);
    EXPECT_EQ(sum, 7u * 16u);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.uniformInt(-5, 17);
        ASSERT_GE(v, -5);
        ASSERT_LE(v, 17);
    }
}

TEST(Rng, Uniform01MeanIsHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform01();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ZipfIsSkewedTowardLowRanks)
{
    Rng r(13);
    std::uint64_t low = 0, high = 0;
    for (int i = 0; i < 5000; ++i) {
        const auto v = r.zipf(100, 1.2);
        ASSERT_LT(v, 100u);
        if (v < 10)
            ++low;
        if (v >= 90)
            ++high;
    }
    EXPECT_GT(low, high * 5);
}

TEST(Rng, PermutationIsAPermutation)
{
    Rng r(15);
    const auto p = r.permutation(100);
    std::vector<bool> seen(100, false);
    for (const auto v : p) {
        ASSERT_LT(v, 100u);
        ASSERT_FALSE(seen[v]);
        seen[v] = true;
    }
}

TEST(Stats, SetAddGetAndPrefixes)
{
    StatSet s;
    s.set("a.x", 1);
    s.add("a.y", 2);
    s.add("a.y", 3);
    s.set("b.z", 7);
    EXPECT_EQ(s.get("a.y"), 5);
    EXPECT_EQ(s.sumPrefix("a."), 6);
    EXPECT_EQ(s.matchPrefix("a.").size(), 2u);
    EXPECT_TRUE(s.has("b.z"));
    EXPECT_FALSE(s.has("b.w"));
    EXPECT_EQ(s.getOr("b.w", -1), -1);
    EXPECT_THROW(s.get("missing"), FatalError);
}

TEST(Stats, HistogramBucketsAndMoments)
{
    Histogram h({1.0, 10.0, 100.0});
    h.sample(0.5);
    h.sample(5);
    h.sample(50);
    h.sample(500);
    EXPECT_EQ(h.count(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(h.bucket(i), 1u);
    EXPECT_EQ(h.max(), 500);
    EXPECT_NEAR(h.mean(), (0.5 + 5 + 50 + 500) / 4, 1e-9);

    StatSet s;
    h.report(s, "h");
    EXPECT_EQ(s.get("h.count"), 4);
}

TEST(Stats, ProbeMatchesStringKeyedSamples)
{
    StatSet keyed, probed;
    StatProbe probe(probed, "lat");
    for (double v : {0.0, 3.0, 17.0, 17.0, 900.0})
        keyed.sample("lat", v);
    for (double v : {0.0, 3.0, 17.0, 17.0, 900.0})
        probe.sample(v);

    std::ostringstream a, b;
    keyed.dumpJson(a);
    probed.dumpJson(b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_EQ(probed.get("lat.count"), 5);
}

TEST(Ring, FifoAcrossGrowthAndWraparound)
{
    Ring<int> r;
    int next = 0, expect = 0;
    // Interleave pushes and pops so the head wraps while the buffer
    // grows past its initial capacity several times.
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < round % 7 + 2; ++i)
            r.push_back(next++);
        for (int i = 0; i < round % 5 + 1 && !r.empty(); ++i) {
            ASSERT_EQ(r.front(), expect);
            EXPECT_EQ(r.pop(), expect++);
        }
        for (std::size_t i = 0; i < r.size(); ++i)
            ASSERT_EQ(r[i], expect + static_cast<int>(i));
    }
    EXPECT_EQ(static_cast<int>(r.size()), next - expect);
    r.clear();
    EXPECT_TRUE(r.empty());
}

TEST(Types, WordReinterpretationRoundTrips)
{
    EXPECT_EQ(asInt(fromInt(-123456789)), -123456789);
    EXPECT_EQ(asDouble(fromDouble(3.14159)), 3.14159);
    EXPECT_EQ(lineAlign(0x12345), 0x12340u);
    EXPECT_EQ(divCeil(10, 3), 4);
    EXPECT_EQ(divCeil(9, 3), 3);
}

// ---------------------------------------------------------------------
// Wake-target dedup (flight-recorder audit).
// ---------------------------------------------------------------------

/**
 * Sleeps until cycle 50 on its first tick, re-sleeps until cycle 100
 * when woken early, and goes idle once cycle 100 is reached.
 */
class Sleeper : public Ticked
{
  public:
    Sleeper() : Ticked("sleeper") {}

    void
    tick(Tick now) override
    {
        ticks.push_back(now);
        if (now == 0)
            sleepUntil(50);
        else if (now < 100)
            sleepUntil(100);
        else
            done = true;
    }

    bool busy() const override { return !done; }

    std::vector<Tick> ticks;
    bool done = false;
};

TEST(WakeDedup, ResleepBeforeQuiescenceKeepsEarliestWakeOnly)
{
    Simulator sim;
    obs::FlightRecorder rec(64);
    sim.setFlightRecorder(&rec);

    Sleeper s;
    sim.add(&s);
    // Poke the sleeper mid-sleep so it re-arms its timed wake while
    // the first heap entry (cycle 50) is still queued.
    sim.schedule(20, [&] { s.requestWake(); });

    const Tick end = sim.run(1000);

    // The dedup keeps the earlier queued target: the entry at 50
    // still fires (a harmless spurious wake — the component just
    // re-decides), and only then is the later target (100) queued.
    EXPECT_EQ(s.ticks, (std::vector<Tick>{0, 20, 50, 100}));
    EXPECT_GE(end, Tick{100});

    std::ostringstream os;
    rec.dump(os);
    const std::string log = os.str();

    auto countOf = [&](const std::string& needle) {
        std::size_t n = 0;
        for (std::size_t p = log.find(needle);
             p != std::string::npos; p = log.find(needle, p + 1))
            ++n;
        return n;
    };

    // One sleep and one wake per tick that slept: no duplicate heap
    // traffic for the deduped re-sleep at cycle 20.
    EXPECT_EQ(countOf("sleep  sleeper"), 3u) << log;
    EXPECT_EQ(countOf("wake   sleeper"), 3u) << log;
    // The audit trail shows the dedup decision: at cycle 20 the
    // component asked for 100, yet the next wake arrives at 50 —
    // the earlier queued entry was kept, not duplicated.
    EXPECT_NE(log.find("[@20] sleep  sleeper (until @100)"),
              std::string::npos)
        << log;
    EXPECT_NE(log.find("[@50] wake   sleeper"), std::string::npos)
        << log;
}

// ---------------------------------------------------------------------
// Credit-return channels (NoC links) vs local channels, unit level.
// ---------------------------------------------------------------------

TEST(BoundaryChannel, PopFreesCapacityOnlyAtNextCommit)
{
    Channel<int> ch("x", 2);
    ch.setCreditReturn();
    ASSERT_TRUE(ch.creditReturn());

    ASSERT_TRUE(ch.push(1));
    ASSERT_TRUE(ch.push(2));
    EXPECT_FALSE(ch.canPush()) << "credit occupancy counts pushes";
    ch.commit();

    EXPECT_EQ(ch.pop(), 1);
    // Unlike a local channel, the freed slot is not pushable until
    // the next commit credits it back: the one-cycle credit return of
    // a router link, independent of the order routers tick in.
    EXPECT_FALSE(ch.canPush())
        << "credit must come back only at the commit boundary";
    ch.commit();
    EXPECT_TRUE(ch.canPush());
    EXPECT_TRUE(ch.push(3));
}

TEST(BoundaryChannel, LocalChannelFreesCapacityImmediately)
{
    Channel<int> ch("x", 2);
    ASSERT_FALSE(ch.creditReturn());
    ASSERT_TRUE(ch.push(1));
    ASSERT_TRUE(ch.push(2));
    ch.commit();
    ch.pop();
    EXPECT_TRUE(ch.canPush())
        << "a channel without credit return keeps same-cycle reuse";
}

// ---------------------------------------------------------------------
// Space wakes: a producer blocked on a full channel sleeps until a
// slot frees for it.
// ---------------------------------------------------------------------

/** Pushes 0..n-1 as fast as the channel takes them; when refused it
 *  arms the channel's space wake and sleeps instead of polling. */
class EagerProducer : public Ticked
{
  public:
    EagerProducer(Channel<int>& ch, int n)
        : Ticked("eager"), ch_(ch), left_(n)
    {
    }

    void
    tick(Tick now) override
    {
        ++ticks;
        if (left_ > 0 && ch_.push(left_)) {
            pushedAt.push_back(now);
            --left_;
        }
        if (left_ > 0 && !ch_.canPush())
            ch_.armSpaceWake(this);
        if (left_ == 0 || !ch_.canPush())
            sleepOnWake();
    }

    bool busy() const override { return left_ > 0; }

    std::vector<Tick> pushedAt;
    std::uint64_t ticks = 0;

  private:
    Channel<int>& ch_;
    int left_;
};

/** Pops one value on every k-th cycle, sleeping in between. */
class PacedConsumer : public Ticked
{
  public:
    PacedConsumer(Channel<int>& ch, Tick k)
        : Ticked("paced"), ch_(ch), k_(k)
    {
    }

    void
    tick(Tick now) override
    {
        if (now % k_ == 0 && !ch_.empty()) {
            ch_.pop();
            poppedAt.push_back(now);
        }
        sleepUntil((now / k_ + 1) * k_);
    }

    bool busy() const override { return false; }

    std::vector<Tick> poppedAt;

  private:
    Channel<int>& ch_;
    Tick k_;
};

struct PacedRun
{
    std::vector<Tick> pushedAt;
    std::vector<Tick> poppedAt;
    std::uint64_t producerTicks = 0;
};

/** A producer refilling a capacity-1 channel that a paced consumer
 *  drains every 3 cycles, the producer walked first or second. */
PacedRun
runPaced(bool fastForward, bool creditReturn, bool producerFirst)
{
    Simulator sim;
    sim.setFastForward(fastForward);
    auto& ch = sim.makeChannel<int>("c", 1);
    if (creditReturn)
        ch.setCreditReturn();
    EagerProducer prod(ch, 6);
    PacedConsumer cons(ch, 3);
    if (producerFirst) {
        sim.add(&prod);
        sim.add(&cons);
    } else {
        sim.add(&cons);
        sim.add(&prod);
    }
    sim.run(1000);
    return PacedRun{prod.pushedAt, cons.poppedAt, prod.ticks};
}

TEST(SpaceWake, BlockedProducerPushesOnTheNaiveCyclesInBothModes)
{
    for (const bool credit : {false, true}) {
        for (const bool first : {false, true}) {
            const PacedRun fast = runPaced(true, credit, first);
            const PacedRun naive = runPaced(false, credit, first);
            SCOPED_TRACE(std::string(credit ? "credit-return" : "plain") +
                         (first ? ", producer first" : ", producer last"));
            ASSERT_EQ(fast.pushedAt.size(), 6u);
            ASSERT_EQ(fast.poppedAt.size(), 6u);
            EXPECT_EQ(fast.pushedAt, naive.pushedAt);
            EXPECT_EQ(fast.poppedAt, naive.poppedAt);
            EXPECT_LT(fast.producerTicks, naive.producerTicks / 2)
                << "the blocked producer must sleep, not poll";
            // A plain channel hands the popped slot to a producer the
            // walk has not reached yet in the same cycle; a credit
            // return makes it pushable on the next cycle only.
            const Tick lag = credit || first ? 1 : 0;
            for (std::size_t i = 0; i + 1 < fast.pushedAt.size(); ++i)
                EXPECT_EQ(fast.pushedAt[i + 1], fast.poppedAt[i] + lag);
        }
    }
}

/** Pops one value at each of the given cycles. */
class ScheduledPopper : public Ticked
{
  public:
    ScheduledPopper(Channel<int>& ch, std::vector<Tick> at)
        : Ticked("popper"), ch_(ch), at_(std::move(at))
    {
    }

    void
    tick(Tick now) override
    {
        if (std::find(at_.begin(), at_.end(), now) != at_.end())
            ch_.pop();
    }

    bool busy() const override { return false; }

  private:
    Channel<int>& ch_;
    std::vector<Tick> at_;
};

TEST(SpaceWake, OneShotAtThePopOrAtTheCreditCommit)
{
    for (const bool credit : {false, true}) {
        Simulator sim;
        auto& ch = sim.makeChannel<int>("c", 2);
        if (credit)
            ch.setCreditReturn();
        ScheduledPopper popper(ch, {3, 6});
        SleepyConsumer waiter(nullptr);
        sim.add(&popper);
        sim.add(&waiter);
        ASSERT_TRUE(ch.push(1));
        ASSERT_TRUE(ch.push(2));
        sim.step(1); // commits the values; the waiter sleeps
        ch.armSpaceWake(&waiter);
        ch.armSpaceWake(&waiter); // arming twice is one wake
        sim.step(10);
        // Plain: woken by the pop at cycle 3, ticking that cycle (the
        // walk has not reached it).  Credit return: woken by the
        // commit of cycle 3, ticking on cycle 4.  The pop at cycle 6
        // finds no armed producer.
        const std::vector<Tick> want{0, credit ? Tick{4} : Tick{3}};
        EXPECT_EQ(waiter.ticks, want)
            << (credit ? "credit-return" : "plain") << " channel";
    }
}

} // namespace
} // namespace ts
