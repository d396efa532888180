/**
 * @file
 * Delta: the full accelerator — N lanes on a mesh with a hardware
 * task dispatcher and a banked memory controller — plus the
 * host-facing API used by examples, tests, and benchmarks.
 *
 * The static-parallel baseline the paper compares against is the same
 * hardware constructed with DeltaConfig::staticBaseline(): policy
 * Static, pipeline recovery off, multicast recovery off.
 */

#ifndef TS_ACCEL_DELTA_HH
#define TS_ACCEL_DELTA_HH

#include <memory>
#include <string>

#include "accel/lane.hh"
#include "accel/mem_node.hh"
#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"
#include "task/dispatcher.hh"
#include "trace/trace.hh"

namespace ts
{

/** Full-system configuration. */
struct DeltaConfig
{
    std::uint32_t lanes = 8;

    SchedPolicy policy = SchedPolicy::WorkAware;
    /** NoC work stealing between lane task units (DESIGN.md §7). */
    StealPolicy steal = StealPolicy::None;
    bool enablePipeline = true;
    bool enableMulticast = true;
    /** Level-barrier execution (static-parallel designs only). */
    bool bulkSynchronous = false;
    std::uint32_t laneQueueCap = 2;

    /** Per-lane scratchpad budget (words) for spatial landing zones;
     *  groups that do not fit spill to the DRAM round-trip
     *  (SchedPolicy::Spatial only, DESIGN.md §8). */
    std::uint64_t spatialBufferWords = 1u << 15;

    LaneConfig lane;
    MainMemoryConfig mem;
    NocConfig nocLinks; ///< width/height are derived from lanes

    Tick maxCycles = 200'000'000;

    /**
     * Cycle-level tracing (Perfetto/chrome://tracing JSON).  This is
     * the only way tracing is enabled: the accelerator never reads
     * the environment.  --trace sets it through
     * ts::driver::RunOverrides::applyTo (src/driver/options.hh).
     */
    trace::TracerConfig trace;

    /**
     * When non-empty, Delta::run() dumps the run's full StatSet as
     * flat JSON to this path, and fatal()s when it cannot.
     * Set by --stats-json through RunOverrides::applyTo().
     */
    std::string statsJsonPath;

    /**
     * Tick every component every cycle instead of running the
     * activity-driven core (Simulator::setFastForward(false)).
     * Bit-identical to the default; exists for differential testing
     * and host-throughput comparison.  Set by --no-fast-forward
     * through RunOverrides::applyTo().
     */
    bool noFastForward = false;

    /**
     * Time-series sampling interval in simulated cycles; 0 (default)
     * disables the timeline.  When on, the run JSON gains a columnar
     * `delta.timeline.*` section sampled at exact simulated ticks —
     * bit-identical across execution modes and thread counts.
     * Behaviour-relevant for cache keys (it changes
     * the emitted stats), so it participates in
     * driver::canonicalConfig.
     */
    Tick timelineInterval = 0;

    /** Cap on cadence samples (the final quiescence sample is always
     *  appended); part of the cache key like timelineInterval. */
    std::size_t timelineMaxSamples = 512;

    /** Probe-group subset, comma-separated out of
     *  "lanes,ready,noc,dram"; empty = all.  Cache-key relevant. */
    std::string timelineSeries;

    /**
     * Attribute host wall-ns to component classes and simulator
     * phases (sim.host.profile.*).  Host-side observability only —
     * never affects simulated results, and like all sim.host.*
     * counters it is excluded from byte-compared dumps.
     */
    bool hostProfile = false;

    /**
     * Ring capacity of the sleep/wake/commit/event flight recorder
     * dumped on deadlock; 0 (default) disables recording.  Purely
     * diagnostic: no effect on simulated results.
     */
    std::size_t flightRecorder = 0;

    /** TaskStream configuration (all mechanisms on). */
    static DeltaConfig delta(std::uint32_t lanes = 8);

    /** Equivalent static-parallel baseline. */
    static DeltaConfig staticBaseline(std::uint32_t lanes = 8);

    /** Ahead-of-time spatial mapping: producer/consumer co-location
     *  with lane-to-lane forwarding (DESIGN.md §8). */
    static DeltaConfig spatial(std::uint32_t lanes = 8);
};

/** The accelerator instance. */
class Delta
{
  public:
    explicit Delta(const DeltaConfig& cfg);
    ~Delta();

    Delta(const Delta&) = delete;
    Delta& operator=(const Delta&) = delete;

    /** The functional memory image (workload setup and checking). */
    MemImage& image() { return img_; }

    /** Task-type registry (register DFGs/builtins before building
     *  the task graph). */
    TaskTypeRegistry& registry() { return registry_; }

    /**
     * Execute a task graph to completion and return the full
     * statistics dump.  Key statistics:
     *   delta.cycles          total execution cycles
     *   delta.busyMax/Mean    lane busy-cycle imbalance
     *   mem.linesRead         DRAM read traffic
     *   noc.wordHops          network traffic
     * One run per Delta instance: the returned set is the
     * simulator's, moved out.
     */
    StatSet run(const TaskGraph& graph);

    std::uint32_t numLanes() const { return cfg_.lanes; }

    /** The run's tracer (disabled unless configured; never null). */
    const trace::Tracer& tracer() const { return *tracer_; }
    const Lane& lane(std::uint32_t i) const { return *lanes_.at(i); }
    const Noc& noc() const { return *noc_; }
    Simulator& sim() { return sim_; }
    const DeltaConfig& config() const { return cfg_; }

    /** NoC node hosting lane @p i. */
    std::uint32_t laneNode(std::uint32_t i) const { return 1 + i; }

  private:
    DeltaConfig cfg_;
    MemImage img_;
    Simulator sim_;
    std::unique_ptr<trace::Tracer> tracer_;
    std::unique_ptr<Noc> noc_;
    TaskTypeRegistry registry_;
    std::unique_ptr<MemNode> memNode_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::unique_ptr<Dispatcher> dispatcher_;
    std::unique_ptr<obs::FlightRecorder> recorder_;
    std::unique_ptr<obs::HostProfiler> profiler_;
    bool ran_ = false;
};

} // namespace ts

#endif // TS_ACCEL_DELTA_HH
