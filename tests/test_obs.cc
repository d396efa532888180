/**
 * @file
 * Observability-layer tests (src/obs/): flight-recorder ring
 * semantics, the weak-event hook the timeline samples through, the
 * deadlock diagnosis (stuck sleepers + recorder dump), host-profiler
 * stat keys and per-run accounting, and the timeline's bit-identity
 * contract across thread counts.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "accel/delta.hh"
#include "driver/sweep.hh"
#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"
#include "sim/channel.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

using namespace ts;

namespace
{

// ---------------------------------------------------------------------
// Flight recorder: ring semantics and dump format.
// ---------------------------------------------------------------------

TEST(FlightRecorderTest, RingEvictsOldestAndDumpsInOrder)
{
    obs::FlightRecorder rec(4);
    EXPECT_EQ(rec.capacity(), 4u);
    EXPECT_EQ(rec.size(), 0u);

    const std::vector<std::string> names = {"n0", "n1", "n2",
                                            "n3", "n4", "n5"};
    for (Tick t = 0; t < 6; ++t)
        rec.record(t, obs::FlightRecorder::Kind::Event,
                   &names[static_cast<std::size_t>(t)]);
    EXPECT_EQ(rec.size(), 4u) << "the ring must cap at capacity";

    std::ostringstream os;
    rec.dump(os);
    const std::string out = os.str();
    EXPECT_EQ(out.find("n0"), std::string::npos)
        << "evicted records must not appear";
    EXPECT_EQ(out.find("n1"), std::string::npos);
    EXPECT_LT(out.find("n2"), out.find("n3"))
        << "dump must be oldest-first";
    EXPECT_LT(out.find("n4"), out.find("n5"));
}

TEST(FlightRecorderTest, RecordKindsFormatTheirAux)
{
    obs::FlightRecorder rec(8);
    const std::string sleeper = "sleeper";
    const std::string napper = "napper";
    const std::string ch = "ch";
    rec.record(3, obs::FlightRecorder::Kind::Sleep, &sleeper,
               obs::FlightRecorder::kNoAux);
    rec.record(4, obs::FlightRecorder::Kind::Sleep, &napper, 42);
    rec.record(5, obs::FlightRecorder::Kind::Commit, &ch, 2);

    std::ostringstream os;
    rec.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("sleeper (until wake)"), std::string::npos)
        << out;
    EXPECT_NE(out.find("napper (until @42)"), std::string::npos)
        << out;
    EXPECT_NE(out.find("ch (2 visible)"), std::string::npos) << out;
}

// ---------------------------------------------------------------------
// Weak events: the sampling hook must be invisible to liveness.
// ---------------------------------------------------------------------

/** Counts down for N cycles, then goes idle (quiescent). */
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

  private:
    int left_;
};

TEST(WeakEventTest, WeakObserversNeverExtendTheRun)
{
    Simulator sim;
    Countdown c(5);
    sim.add(&c);

    std::vector<Tick> sampledAt;
    sim.scheduleWeak(3, [&] { sampledAt.push_back(sim.now()); });
    // Far past quiescence: must neither fire nor keep the run alive.
    sim.scheduleWeak(1000, [&] { sampledAt.push_back(sim.now()); });

    const Tick end = sim.run(10000);
    EXPECT_EQ(end, 5u)
        << "a pending weak observer must not delay quiescence";
    ASSERT_EQ(sampledAt.size(), 1u);
    EXPECT_EQ(sampledAt[0], 3u)
        << "due weak observers fire at their exact tick";
}

TEST(WeakEventTest, WeakFiresAfterStrongEventsOfTheSameTick)
{
    Simulator sim;
    Countdown c(10);
    sim.add(&c);

    int strongValue = 0;
    int seenByWeak = -1;
    sim.schedule(4, [&] { strongValue = 7; });
    sim.scheduleWeak(4, [&] { seenByWeak = strongValue; });

    sim.run(10000);
    EXPECT_EQ(seenByWeak, 7)
        << "weak observers must see post-event state of their tick";
}

// ---------------------------------------------------------------------
// Deadlock diagnosis: stuck sleepers, channel states, recorder dump.
// ---------------------------------------------------------------------

/** Sleeps forever on a wake that never comes, while still busy. */
class StuckConsumer : public Ticked
{
  public:
    StuckConsumer() : Ticked("stuck_consumer") {}

    void
    tick(Tick) override
    {
        sleepOnWake();
    }

    bool busy() const override { return true; }
};

TEST(DeadlockDiagnosisTest, NamesStuckSleeperAndItsChannels)
{
    Simulator sim;
    auto& ch = sim.makeChannel<int>("starved_ch", 4);
    StuckConsumer cons;
    sim.add(&cons);
    ch.addObserver(&cons);

    try {
        sim.run(1000);
        FAIL() << "expected a deadlock fatal";
    } catch (const FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("stuck components:"), std::string::npos)
            << what;
        EXPECT_NE(what.find("stuck_consumer: sleeping until woken"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("observes starved_ch [empty]"),
                  std::string::npos)
            << "the diagnosis must show each observed channel's "
               "state: "
            << what;
    }
}

TEST(DeadlockDiagnosisTest, FlightRecorderDumpRidesAlong)
{
    Simulator sim;
    obs::FlightRecorder rec(16);
    sim.setFlightRecorder(&rec);
    StuckConsumer cons;
    sim.add(&cons);

    try {
        sim.run(1000);
        FAIL() << "expected a deadlock fatal";
    } catch (const FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("flight recorder (last"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("sleep  stuck_consumer (until wake)"),
                  std::string::npos)
            << "the ring must hold the fatal sleep: " << what;
    }
}

// ---------------------------------------------------------------------
// Host profiler: bucket mapping and reported keys.
// ---------------------------------------------------------------------

TEST(HostProfilerTest, TickBucketsFollowComponentNames)
{
    using P = obs::HostProfiler;
    EXPECT_EQ(P::tickBucketForName("lane0.taskUnit"), P::TickLane);
    EXPECT_EQ(P::tickBucketForName("lane12.readEngine"), P::TickLane);
    EXPECT_EQ(P::tickBucketForName("noc.router3"), P::TickNoc);
    EXPECT_EQ(P::tickBucketForName("main_memory"), P::TickDram);
    EXPECT_EQ(P::tickBucketForName("memnode"), P::TickDram);
    EXPECT_EQ(P::tickBucketForName("dispatcher"), P::TickDispatcher);
    EXPECT_EQ(P::tickBucketForName("something_else"), P::TickOther);
}

StatSet
runSpmv(DeltaConfig cfg)
{
    SuiteParams sp;
    sp.scale = 0.25;
    sp.seed = 7;
    auto wl = makeWorkload(Wk::Spmv, sp);
    Delta delta(cfg);
    TaskGraph graph;
    wl->build(delta, graph);
    StatSet stats = delta.run(graph);
    EXPECT_TRUE(wl->check(delta.image()));
    return stats;
}

TEST(HostProfilerTest, ProfiledRunReportsHotspotKeys)
{
    DeltaConfig cfg = DeltaConfig::delta();
    cfg.hostProfile = true;
    const StatSet stats = runSpmv(cfg);

    EXPECT_TRUE(stats.has("sim.host.profile.tickLaneNs"));
    EXPECT_TRUE(stats.has("sim.host.profile.commitNs"));
    EXPECT_TRUE(stats.has("sim.host.profile.eventsNs"));
    EXPECT_TRUE(stats.has("sim.host.profile.quiescenceNs"));
    EXPECT_GT(stats.get("sim.host.profile.tickLaneNs"), 0.0)
        << "lanes dominate spmv; their bucket cannot be empty";

    // Excluded from byte-compared dumps along with every other
    // sim.host.* counter.
    std::ostringstream os;
    stats.dumpJson(os, "sim.host.");
    EXPECT_EQ(os.str().find("sim.host.profile."), std::string::npos);
}

TEST(HostProfilerTest, UnprofiledRunHasNoHotspotKeys)
{
    const StatSet stats = runSpmv(DeltaConfig::delta());
    EXPECT_FALSE(stats.has("sim.host.profile.tickLaneNs"));
}

TEST(HostProfilerTest, SweepRunsNeverProfileMoreThanTheirWallTime)
{
    // Two seeds of each config on one worker, so a worker that
    // reused an accelerator across runs would carry one run's
    // profile buckets into the next.  The buckets time disjoint
    // intervals inside Simulator::run, so their sum can never exceed
    // the run's own wall time.
    driver::SweepSpec spec;
    spec.workloads = {Wk::Spmv, Wk::Msort};
    spec.configs = driver::sweepConfigsFromList("static,delta");
    spec.seeds = {7, 11};
    spec.scales = {1.0};
    spec.jobs = 1;
    spec.overrides.hostProfile = true;
    const driver::SweepReport report =
        driver::Sweep(std::move(spec)).run();
    ASSERT_EQ(report.runs.size(), 8u);
    for (const driver::RunOutcome& out : report.runs) {
        ASSERT_TRUE(out.ok()) << out.point.tag() << ": " << out.error;
        double profiled = 0;
        for (const auto& [name, v] :
             out.stats.matchPrefix("sim.host.profile."))
            profiled += v;
        const double wall = out.stats.get("sim.host.wallNs");
        EXPECT_GT(profiled, 0.0) << out.point.tag();
        EXPECT_LE(profiled, wall)
            << out.point.tag() << ": profile buckets sum to "
            << profiled / wall << "x the run's wall time";
    }
}

// ---------------------------------------------------------------------
// Timeline: shape, invariants, subsets, caps.
// ---------------------------------------------------------------------

TEST(TimelineTest, SamplesCoverTheRunAndSumToTheAccounting)
{
    DeltaConfig cfg = DeltaConfig::delta();
    cfg.timelineInterval = 500;
    const StatSet stats = runSpmv(cfg);

    EXPECT_EQ(stats.get("delta.timeline.interval"), 500.0);
    const auto n = static_cast<std::size_t>(
        stats.get("delta.timeline.samples"));
    ASSERT_GE(n, 2u) << "at least the start and quiescence samples";

    EXPECT_EQ(stats.get("delta.timeline.t.00000"), 0.0)
        << "sample 0 is the pre-run baseline";
    char last[32];
    std::snprintf(last, sizeof last, "%05zu", n - 1);
    EXPECT_EQ(stats.get("delta.timeline.t." + std::string(last)),
              stats.get("delta.cycles"))
        << "the final sample lands exactly at quiescence";

    // Counter series report per-interval deltas, so each lane's busy
    // column sums to its total busy cycles; across lanes that is the
    // accounting waterfall's busy row.
    double busySum = 0.0;
    for (const auto& [name, value] :
         stats.matchPrefix("delta.timeline.lane")) {
        if (name.find(".busy.") != std::string::npos)
            busySum += value;
    }
    EXPECT_EQ(busySum, stats.get("delta.accounting.busy"))
        << "timeline busy deltas must reconcile with the "
           "cycle-accounting totals";
}

TEST(TimelineTest, SeriesListSelectsProbeGroups)
{
    DeltaConfig cfg = DeltaConfig::delta();
    cfg.timelineInterval = 500;
    cfg.timelineSeries = "noc,dram";
    const StatSet stats = runSpmv(cfg);

    EXPECT_TRUE(stats.has("delta.timeline.nocInFlight.00000"));
    EXPECT_TRUE(stats.has("delta.timeline.dramQueue.00000"));
    EXPECT_FALSE(stats.has("delta.timeline.readyQueue.00000"));
    EXPECT_FALSE(stats.has("delta.timeline.lane0.busy.00000"));
}

TEST(TimelineTest, MaxSamplesCapsTheCadence)
{
    DeltaConfig cfg = DeltaConfig::delta();
    cfg.timelineInterval = 10;
    cfg.timelineMaxSamples = 4;
    const StatSet stats = runSpmv(cfg);

    const auto n = static_cast<std::size_t>(
        stats.get("delta.timeline.samples"));
    EXPECT_LE(n, 5u)
        << "at most maxSamples cadence samples plus the final one";
    EXPECT_GE(n, 4u);
}

// ---------------------------------------------------------------------
// Determinism: the timeline must never depend on how the host ran
// the simulation (thread count).
// ---------------------------------------------------------------------

driver::SweepSpec
timelineSpec()
{
    driver::SweepSpec spec;
    spec.workloads = {Wk::Spmv, Wk::Msort};
    spec.configs = driver::sweepConfigsFromList("static,delta");
    spec.seeds = {7};
    spec.scales = {0.25};
    spec.overrides.timelineInterval = 500;
    return spec;
}

std::vector<std::string>
runDumps(driver::SweepSpec spec)
{
    driver::SweepReport report = driver::Sweep(std::move(spec)).run();
    std::vector<std::string> dumps;
    for (const driver::RunOutcome& out : report.runs) {
        EXPECT_TRUE(out.ok()) << out.point.tag() << ": " << out.error;
        std::ostringstream os;
        out.stats.dumpJson(os, "sim.host.");
        dumps.push_back(os.str());
        EXPECT_NE(os.str().find("delta.timeline.samples"),
                  std::string::npos)
            << out.point.tag() << ": timeline missing from sweep run";
    }
    return dumps;
}

TEST(TimelineDeterminismTest, ParallelSweepBitIdenticalToSerial)
{
    driver::SweepSpec serial = timelineSpec();
    serial.jobs = 1;
    driver::SweepSpec parallel = timelineSpec();
    parallel.jobs = 4;

    const auto a = runDumps(std::move(serial));
    const auto b = runDumps(std::move(parallel));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i])
            << "timeline columns diverged between -j1 and -j4";
}

TEST(TimelineDeterminismTest, ForkedRunsBitIdenticalToFresh)
{
    // Two seeds on one worker: later runs follow earlier ones, where
    // runs were once warm-started from a snapshot.  Each must match a
    // sweep that runs only its own seed.
    driver::SweepSpec both = timelineSpec();
    both.seeds = {7, 11};
    both.jobs = 1;
    const std::vector<driver::RunPoint> points =
        driver::Sweep(both).points();
    const auto a = runDumps(both);
    ASSERT_EQ(a.size(), points.size());

    std::map<std::string, std::string> alone;
    for (const std::uint64_t seed : both.seeds) {
        driver::SweepSpec one = both;
        one.seeds = {seed};
        const std::vector<driver::RunPoint> onePoints =
            driver::Sweep(one).points();
        const auto dumps = runDumps(std::move(one));
        ASSERT_EQ(dumps.size(), onePoints.size());
        for (std::size_t i = 0; i < dumps.size(); ++i)
            alone[onePoints[i].tag()] = dumps[i];
    }

    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], alone.at(points[i].tag()))
            << points[i].tag()
            << ": timeline columns diverged between back-to-back and "
               "standalone runs";
}

} // namespace
