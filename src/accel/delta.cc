#include "accel/delta.hh"

#include <array>
#include <cmath>
#include <fstream>

#include "obs/timeline.hh"
#include "sim/logging.hh"
#include "spatial/mapper.hh"
#include "trace/accounting.hh"

namespace ts
{

DeltaConfig
DeltaConfig::delta(std::uint32_t lanes)
{
    DeltaConfig cfg;
    cfg.lanes = lanes;
    cfg.policy = SchedPolicy::WorkAware;
    cfg.enablePipeline = true;
    cfg.enableMulticast = true;
    return cfg;
}

DeltaConfig
DeltaConfig::staticBaseline(std::uint32_t lanes)
{
    DeltaConfig cfg;
    cfg.lanes = lanes;
    cfg.policy = SchedPolicy::Static;
    cfg.enablePipeline = false;
    cfg.enableMulticast = false;
    cfg.bulkSynchronous = true;
    return cfg;
}

DeltaConfig
DeltaConfig::spatial(std::uint32_t lanes)
{
    // The AOT mapper replaces both runtime recovery mechanisms that
    // move tasks (pipeline holds, stealing): placement is decided
    // before the first dispatch and producers stream to their mapped
    // consumers directly.  Multicast stays on — shared read-only
    // inputs are orthogonal to the producer/consumer edges the mapper
    // forwards.
    DeltaConfig cfg;
    cfg.lanes = lanes;
    cfg.policy = SchedPolicy::Spatial;
    cfg.enablePipeline = false;
    cfg.enableMulticast = true;
    cfg.bulkSynchronous = false;
    cfg.steal = StealPolicy::None;
    return cfg;
}

namespace
{

NocConfig
meshFor(std::uint32_t lanes, NocConfig links)
{
    const std::uint32_t total = lanes + 2; // dispatcher + memory
    auto w = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(total))));
    links.width = w;
    links.height = divCeil(total, w);
    return links;
}

} // namespace

Delta::Delta(const DeltaConfig& cfg)
    : cfg_(cfg), registry_(cfg.lane.fabric.geom)
{
    if (cfg_.lanes == 0 || cfg_.lanes > 62)
        fatal("Delta supports 1..62 lanes, got ", cfg_.lanes);

    sim_.setFastForward(!cfg_.noFastForward);
    tracer_ = std::make_unique<trace::Tracer>(cfg_.trace);

    noc_ = std::make_unique<Noc>(sim_, meshFor(cfg_.lanes, cfg_.nocLinks));

    const std::uint32_t dispatcherNode = 0;
    const std::uint32_t memNodeId = cfg_.lanes + 1;

    memNode_ = std::make_unique<MemNode>(sim_, *noc_, memNodeId,
                                         cfg_.mem);

    std::vector<std::uint32_t> laneNodes;
    for (std::uint32_t i = 0; i < cfg_.lanes; ++i)
        laneNodes.push_back(laneNode(i));

    for (std::uint32_t i = 0; i < cfg_.lanes; ++i) {
        lanes_.push_back(std::make_unique<Lane>(
            sim_, *noc_, img_, registry_, i, laneNode(i),
            dispatcherNode, memNodeId, cfg_.lane, laneNodes,
            cfg_.steal));
    }

    DispatcherConfig dcfg;
    dcfg.policy = cfg_.policy;
    dcfg.steal = cfg_.steal;
    dcfg.enablePipeline = cfg_.enablePipeline;
    dcfg.enableMulticast = cfg_.enableMulticast;
    dcfg.bulkSynchronous = cfg_.bulkSynchronous;
    dcfg.laneQueueCap = cfg_.laneQueueCap;
    dcfg.spmLandingWords = cfg_.lane.spm.sizeWords;
    dcfg.spatialBufferWords = cfg_.spatialBufferWords;
    dcfg.selfNode = dispatcherNode;
    dcfg.memNode = memNodeId;
    for (std::uint32_t i = 0; i < cfg_.lanes; ++i)
        dcfg.laneNodes.push_back(laneNode(i));
    dispatcher_ = std::make_unique<Dispatcher>(*noc_, img_, registry_,
                                               dcfg, sim_.stats());
    sim_.add(dispatcher_.get());
    sim_.setTracer(tracer_.get());

    if (cfg_.flightRecorder > 0) {
        recorder_ =
            std::make_unique<obs::FlightRecorder>(cfg_.flightRecorder);
        sim_.setFlightRecorder(recorder_.get());
    }
    if (cfg_.hostProfile) {
        profiler_ = std::make_unique<obs::HostProfiler>();
        sim_.setHostProfiler(profiler_.get());
    }
}

Delta::~Delta() = default;

StatSet
Delta::run(const TaskGraph& graph)
{
    TS_ASSERT(!ran_, "a Delta instance runs one graph");
    ran_ = true;

    StatSet& stats = sim_.stats();

    // Ahead-of-time spatial mapping: plan lane placement from the
    // fully-known graph before the first dispatch.  The plan is a
    // pure function of (graph, image, registry, mesh), so it is
    // bit-identical across execution modes.
    spatial::SpatialPlan plan;
    if (cfg_.policy == SchedPolicy::Spatial) {
        std::vector<std::uint32_t> laneNodes;
        for (std::uint32_t i = 0; i < cfg_.lanes; ++i)
            laneNodes.push_back(laneNode(i));
        plan = spatial::mapTaskGraph(graph, img_, registry_, *noc_,
                                     laneNodes,
                                     cfg_.nocLinks.linkWords);
        dispatcher_->setSpatialPlan(plan.lane);
    }

    dispatcher_->loadGraph(graph);

    // Time-series sampler: weak events at exact simulated ticks, so
    // the timeline is bit-identical across execution modes and
    // thread counts.  run() drops any still-armed sample event, so
    // the captures below cannot outlive this call.
    std::unique_ptr<obs::Timeline> timeline;
    if (cfg_.timelineInterval > 0) {
        obs::TimelineConfig tlc;
        tlc.interval = cfg_.timelineInterval;
        tlc.maxSamples = cfg_.timelineMaxSamples;
        tlc.series = cfg_.timelineSeries;
        timeline = std::make_unique<obs::Timeline>(sim_, tlc);
        for (std::uint32_t i = 0; i < cfg_.lanes; ++i) {
            const TaskUnit& tu = lanes_[i]->taskUnit();
            for (std::size_t c = 0; c < kNumCycleClasses; ++c)
                timeline->addCounter(
                    "lanes",
                    "lane" + std::to_string(i) + "." +
                        cycleClassName(static_cast<CycleClass>(c)),
                    [&tu, c] {
                        return static_cast<double>(
                            tu.cycleBuckets().counts[c]);
                    });
        }
        timeline->addGauge("ready", "readyQueue", [this] {
            return static_cast<double>(
                dispatcher_->readyQueueDepth());
        });
        timeline->addGauge("noc", "nocInFlight", [this] {
            return static_cast<double>(noc_->packetsInFlight());
        });
        timeline->addGauge("dram", "dramQueue", [this] {
            return static_cast<double>(
                memNode_->memory().queueDepth());
        });
        timeline->start();
    }

    const Tick cycles = sim_.run(cfg_.maxCycles);
    if (timeline != nullptr)
        timeline->finalSample();

    if (!dispatcher_->allComplete())
        panic("simulation quiesced with incomplete tasks");
    // Each consumer releases its pipes and spatial groups on
    // completion, so a drained run leaves none of them behind.
    for (const auto& lane : lanes_) {
        if (const auto id = lane->landing().firstLive()) {
            panic(lane->name(), " still holds ", landingName(*id),
                  " after the run drained");
        }
    }

    // Each component writes its own keys, delta.* attribution
    // included; below is only what no one component can write.
    sim_.reportStats(stats);
    noc_->reportStats(stats);
    if (timeline != nullptr)
        timeline->report(stats);
    stats.set("delta.cycles", static_cast<double>(cycles));
    stats.set("delta.lanes", static_cast<double>(cfg_.lanes));

    double busyMax = 0, busySum = 0;
    for (const auto& lane : lanes_) {
        const auto busy =
            static_cast<double>(lane->taskUnit().busyCycles());
        busyMax = std::max(busyMax, busy);
        busySum += busy;
    }
    stats.set("delta.busyMax", busyMax);
    stats.set("delta.busyMean",
              busySum / static_cast<double>(cfg_.lanes));
    stats.set("delta.imbalance",
              busySum > 0 ? busyMax * cfg_.lanes / busySum : 1.0);

    // Top-down cycle accounting: per-lane buckets are reported by
    // each task unit; aggregate them here and check the invariant
    // that every lane cycle is attributed to exactly one bucket.
    std::array<double, kNumCycleClasses> agg{};
    for (const auto& lane : lanes_) {
        const CycleBuckets& b = lane->taskUnit().cycleBuckets();
        TS_ASSERT(b.total() == cycles,
                  "cycle-accounting buckets must sum to delta.cycles");
        for (std::size_t c = 0; c < kNumCycleClasses; ++c)
            agg[c] += static_cast<double>(b.counts[c]);
    }
    for (std::size_t c = 0; c < kNumCycleClasses; ++c) {
        const char* cls = cycleClassName(static_cast<CycleClass>(c));
        stats.set(std::string("delta.accounting.") + cls, agg[c]);
        stats.set(std::string("delta.accounting.frac.") + cls,
                  cycles > 0 ? agg[c] / (static_cast<double>(cycles) *
                                         cfg_.lanes)
                             : 0.0);
    }

    // Spatial-mapping attribution: DRAM traffic the lane-to-lane
    // forwarding suppressed (producer write-backs) and avoided
    // (consumer landing-zone reads), plus the NoC cost it paid.
    if (cfg_.policy == SchedPolicy::Spatial) {
        std::uint64_t suppressed = 0, landingLines = 0, hopWords = 0;
        std::uint64_t fwdWords = 0, chunks = 0;
        for (const auto& lane : lanes_) {
            suppressed += lane->spatialLinesSuppressed();
            landingLines += lane->spatialLandingLines();
            hopWords += lane->spatialHopWords();
            fwdWords += lane->landing().spatialWordsReceived();
            chunks += lane->spatialChunksSent();
        }
        const double saved =
            static_cast<double>(suppressed + landingLines);
        stats.set("delta.attrib.spatial.dramLinesSaved", saved);
        stats.set("delta.attrib.spatial.dramBytesSaved",
                  saved * lineBytes);
        stats.set("delta.attrib.spatial.linesSuppressed",
                  static_cast<double>(suppressed));
        stats.set("delta.attrib.spatial.landingLines",
                  static_cast<double>(landingLines));
        stats.set("delta.attrib.spatial.forwardHops",
                  static_cast<double>(hopWords));
        stats.set("delta.attrib.spatial.forwardWords",
                  static_cast<double>(fwdWords));
        stats.set("delta.attrib.spatial.chunks",
                  static_cast<double>(chunks));
        stats.set("delta.attrib.spatial.plannedMakespan",
                  static_cast<double>(plan.predictedMakespan));
        stats.set("delta.attrib.spatial.plannedCritPath",
                  static_cast<double>(plan.predictedCritPath));
        stats.set("delta.attrib.spatial.balanceWeight",
                  plan.balanceWeight);
        stats.set("delta.attrib.spatial.forwardableEdges",
                  static_cast<double>(plan.forwardableEdges));
    }

    // -- Critical-path bound from the measured task spans --
    const CritPathResult cp =
        graph.criticalPath(dispatcher_->taskSpans());
    const Tick bound = cp.boundCycles(cfg_.lanes);
    stats.set("delta.critpath.cycles",
              static_cast<double>(cp.criticalPathCycles));
    stats.set("delta.critpath.serialCycles",
              static_cast<double>(cp.serialCycles));
    stats.set("delta.critpath.boundCycles",
              static_cast<double>(bound));
    stats.set("delta.critpath.pathTasks",
              static_cast<double>(cp.path.size()));
    stats.set("delta.critpath.utilization",
              cycles > 0 ? static_cast<double>(bound) /
                               static_cast<double>(cycles)
                         : 0.0);

    if (tracer_->enabled()) {
        // Leave the per-lane summary in the trace, then seal it.
        for (std::uint32_t i = 0; i < cfg_.lanes; ++i) {
            const CycleBuckets& b =
                lanes_[i]->taskUnit().cycleBuckets();
            const std::string series = "lane" + std::to_string(i);
            for (std::size_t c = 0; c < kNumCycleClasses; ++c) {
                tracer_->counter(
                    (std::string("accounting.") +
                     cycleClassName(static_cast<CycleClass>(c)))
                        .c_str(),
                    series.c_str(), static_cast<double>(b.counts[c]));
            }
        }
        stats.set("trace.events",
                  static_cast<double>(tracer_->events()));
        tracer_->finish();
    }

    // Machine-readable dump for tools/delta-report: every run (the
    // quickstart included) can emit its full StatSet as flat JSON.
    if (!cfg_.statsJsonPath.empty()) {
        std::ofstream out(cfg_.statsJsonPath);
        if (!out)
            fatal("stats JSON: cannot open '", cfg_.statsJsonPath,
                  "' for writing");
        stats.dumpJson(out);
        out.close();
        if (!out)
            fatal("stats JSON: cannot write '", cfg_.statsJsonPath,
                  "'");
        inform("stats JSON written to ", cfg_.statsJsonPath);
    }
    return std::move(stats);
}

} // namespace ts
