/**
 * @file
 * The hardware task dispatcher: TaskStream's central contribution.
 *
 * The dispatcher tracks dependences, maintains the ready set, and
 * maps tasks to lanes.  Because dependences are *annotated*, it can
 * recover program structure that task decomposition destroyed:
 *
 *  - Work-aware load balancing: stream arguments give a one-adder
 *    estimate of each task's work; lanes are chosen by least
 *    outstanding estimated work instead of task count or static
 *    ownership.
 *  - Pipelined dependences: a ready task's forward closure over
 *    Pipeline edges is co-dispatched atomically; producer output
 *    streams are forwarded chunk-by-chunk to consumer lanes, which
 *    begin executing as data arrives.
 *  - Shared-read multicast: tasks annotated as reading the same range
 *    are dispatched together; the range is fetched from DRAM once and
 *    multicast into every subscriber lane's scratchpad.
 *
 * The static-parallel baseline is this same dispatcher with policy
 * Static and both recovery mechanisms disabled.
 */

#ifndef TS_TASK_DISPATCHER_HH
#define TS_TASK_DISPATCHER_HH

#include <deque>
#include <map>
#include <optional>
#include <string>

#include "noc/noc.hh"
#include "task/messages.hh"
#include "task/task_graph.hh"

namespace ts
{

/** Lane-selection policies. */
enum class SchedPolicy : std::uint8_t
{
    Static,   ///< owner-compute: lane = uid % lanes (baseline)
    DynCount, ///< least queued task count
    WorkAware, ///< least outstanding estimated work (TaskStream)
    /** Ahead-of-time spatial plan: tasks pin to mapper-assigned
     *  lanes; producer outputs stream lane-to-lane into consumer
     *  landing zones instead of round-tripping through DRAM. */
    Spatial
};

/** Human-readable policy name. */
const char* schedPolicyName(SchedPolicy p);

/** Parse a policy name ("static", "dyncount", "workaware",
 *  "spatial"); returns false on unknown names. */
bool schedPolicyFromName(const std::string& s, SchedPolicy& out);

/** Dispatcher configuration. */
struct DispatcherConfig
{
    SchedPolicy policy = SchedPolicy::WorkAware;
    StealPolicy steal = StealPolicy::None;
    bool enablePipeline = true;
    bool enableMulticast = true;
    /** Bulk-synchronous execution: a barrier between dependence
     *  levels, as in a classic static-parallel design (all of level
     *  L completes before level L+1 may start). */
    bool bulkSynchronous = false;
    std::uint32_t laneQueueCap = 2;  ///< per-lane queue (incl. running)
    std::uint32_t sendPerCycle = 2;  ///< packets injected per cycle
    /** Upper bound on how long a ready task with soon-joinable
     *  pipeline consumers is held back so whole pipeline regions
     *  co-dispatch (holding is free: the blockers are running on the
     *  lanes anyway). */
    Tick pipelineHoldCycles = 65536;
    /** Even with idle lanes, a ready task with pending pipeline
     *  consumers waits this long so near-simultaneous siblings can
     *  coalesce into one co-dispatched region. */
    Tick pipelineGraceCycles = 768;
    std::uint64_t spmLandingWords = 1u << 16; ///< shared-copy budget

    /** Spatial: per-lane landing-buffer budget (words).  A forwarded
     *  group whose buffer does not fit spills permanently to the
     *  DRAM round-trip. */
    std::uint64_t spatialBufferWords = 1u << 15;
    /** Spatial: a spawned task escapes its inherited lane when that
     *  lane's outstanding work exceeds this multiple of the mean. */
    double spatialRemapFactor = 1.5;

    std::uint32_t selfNode = 0;
    std::uint32_t memNode = 0;
    std::vector<std::uint32_t> laneNodes;
};

/** The dispatcher hardware unit (one NoC node). */
class Dispatcher : public Ticked
{
  public:
    Dispatcher(Noc& noc, const MemImage& img,
               const TaskTypeRegistry& registry,
               const DispatcherConfig& cfg);

    /** Load a whole task graph (host enqueue). */
    void loadGraph(const TaskGraph& graph);

    /**
     * Install the AOT spatial plan (per-uid lanes) before loadGraph.
     * Under SchedPolicy::Spatial, tasks pin to their planned lane;
     * uids beyond the plan (or planned -1) fall back to uid % lanes.
     */
    void setSpatialPlan(std::vector<std::int32_t> lanes)
    {
        plannedLane_ = std::move(lanes);
    }

    /** All loaded *and dynamically spawned* tasks have completed. */
    bool allComplete() const
    {
        return completed_ == states_.size();
    }

    void tick(Tick now) override;
    bool busy() const override;
    void reportStats(StatSet& stats) const override;

    // Experiment-facing counters.
    std::uint64_t pipesActivated() const { return pipesActivated_; }
    std::uint64_t pipesDegraded() const { return pipesDegraded_; }
    std::uint64_t groupsFired() const { return groupsFired_; }
    double laneWork(std::uint32_t lane) const
    {
        return laneWork_.at(lane);
    }

    // -- Mechanism attribution (see delta.attrib.* in Delta::run) --

    /** Measured per-lane service cycles under the actual assignment;
     *  max over lanes is the compute-critical lane. */
    double actualMaxServiceCycles() const;

    /** Max per-lane service cycles under the shadow static
     *  owner-compute assignment (lane = uid % lanes) fed with the
     *  same measured service times. */
    double shadowStaticMaxServiceCycles() const;

    /**
     * Cycles of load imbalance the dispatch policy avoided relative
     * to the shadow static assignment (clamped at zero).
     */
    double imbalanceCyclesAvoided() const;

    /** Producer/consumer execution overlap enabled by activated
     *  pipeline edges (cycles, summed over edges). */
    double pipeOverlapCycles() const { return pipeOverlapCycles_; }

    /** DRAM lines shared-fill multicast actually requested. */
    std::uint64_t fillLinesRequested() const
    {
        return fillLinesRequested_;
    }

    /** DRAM lines the same shared reads would have cost with one
     *  unicast fetch per member (replay estimate). */
    std::uint64_t mcastUnicastLinesEquiv() const
    {
        return mcastUnicastLinesEquiv_;
    }

    /** Measured execution spans of all completed tasks (for
     *  TaskGraph::criticalPath). */
    std::vector<TaskSpan> taskSpans() const;

    /** Tasks currently ready but not yet issued to a lane (timeline
     *  probe). */
    std::size_t readyQueueDepth() const { return readyQ_.size(); }

    // -- Dynamic-spawn and steal attribution --

    /** Tasks submitted by running tasks (SpawnMsg). */
    std::uint64_t tasksSpawned() const { return tasksSpawned_; }

    /** Tasks that migrated lanes via the steal protocol. */
    std::uint64_t tasksStolen() const { return tasksStolen_; }

    /** NoC hops the stolen tasks traveled victim -> thief. */
    std::uint64_t stealHopsTraveled() const { return stealHops_; }

    // -- Spatial-mapping attribution --

    /** Forwarding decisions made (producer output -> consumer
     *  landing zone). */
    std::uint64_t spatialForwards() const { return spatialForwards_; }

    /** Landing groups that fell back to the DRAM round-trip because
     *  the consumer lane's buffer budget was exhausted. */
    std::uint64_t spatialSpills() const { return spatialSpills_; }

    /** Spawned tasks that escaped their inherited lane (imbalance
     *  remap). */
    std::uint64_t spatialRemaps() const { return spatialRemaps_; }

    /** Landing groups ever allocated buffer space. */
    std::uint64_t spatialGroups() const
    {
        return spatialGroupsAllocated_;
    }

    /** High-water mark of any one lane's landing-buffer occupancy. */
    std::uint64_t spatialBufPeakWords() const
    {
        return spatialBufPeak_;
    }

    /** Max per-lane service cycles charged to the *dispatch-time*
     *  lane assignment (what the run would have cost had nothing
     *  been stolen), analogous to shadowStaticMaxServiceCycles. */
    double stealShadowMaxServiceCycles() const;

    /**
     * Imbalance cycles the steal protocol recovered: the gap between
     * the dispatch-time shadow max-service and the post-steal actual
     * max-service (clamped at zero).
     */
    double stealImbalanceCyclesRecovered() const;

  private:
    struct EdgeState
    {
        DepEdge e;
        bool activated = false;
        bool resolved = false; ///< activation decision made
    };

    struct TaskState
    {
        /** Owned by value: spawned tasks have no host TaskGraph
         *  backing, so the dispatcher keeps its own copy. */
        TaskInstance inst;
        std::uint32_t remDeps = 0;
        bool dispatched = false;
        bool completed = false;
        std::int32_t lane = -1;
        std::int32_t origLane = -1; ///< dispatch-time lane (pre-steal)
        Tick readyAt = 0;
        bool started = false; ///< TaskStart seen
        Tick startAt = 0;     ///< cycle the lane began executing
        Tick endAt = 0;       ///< cycle TaskComplete arrived
        std::uint32_t level = 0; ///< longest path from the roots
        double workEst = 0;
        std::vector<std::size_t> inEdges;
        std::vector<std::size_t> outEdges;
    };

    struct GroupState
    {
        SharedGroup g;
        bool fired = false;
        std::uint64_t landingOffset = 0;
    };

    /**
     * One spatial landing group: a consumer input port receiving
     * forwarded producer streams.  Created at the *first* forwarding
     * producer's dispatch; the buffer-fit (spill) decision is made
     * once, then is permanent — which is what keeps spills
     * AOT-deterministic across host parallelism and execution modes.
     */
    struct SpatialGroup
    {
        TaskId consumer = 0;
        std::uint8_t port = 0;
        std::int32_t lane = -1;       ///< consumer's pinned lane
        std::uint64_t bufWords = 0;   ///< lines-rounded port extent
        std::uint32_t expectedDones = 0; ///< forwarding producers
        bool spilled = false;
        bool allocated = false;
    };

    void processInbox(Tick now);
    void onComplete(const CompleteMsg& msg, Tick now);
    void onSpawn(const SpawnMsg& msg, Tick now);
    void onStealNotify(const StealNotifyMsg& msg, Tick now);
    /** Transfer queue/work bookkeeping of a stolen, not-yet-complete
     *  task from its current lane to @p toLane. */
    void applyStealMove(TaskId uid, std::uint32_t toLane);
    /** Panic if the not-yet-completed subgraph has a cycle. */
    void checkLiveAcyclic() const;
    bool tryDispatchHead(Tick now);
    std::vector<TaskId> pipelineClosure(TaskId root) const;
    std::optional<std::vector<TaskId>>
    tryJoinClosure(TaskId c, std::vector<TaskId> set,
                   unsigned depth) const;
    bool soonJoinable(TaskId c, unsigned depth) const;
    std::int32_t pickLane(TaskId id,
                          const std::vector<std::uint32_t>& extraLoad,
                          const std::vector<double>& extraWork) const;
    void enqueueDispatch(TaskId id, DispatchMsg msg);
    void fireGroup(std::uint32_t groupId);

    /** The lane uid will be pinned to under SchedPolicy::Spatial. */
    std::uint32_t spatialPlannedLane(TaskId id) const;
    /** Assign planned lanes to tasks spawned by @p spawner
     *  (inheritance plus the imbalance-remap escape hatch). */
    void spatialPlanSpawned(TaskId spawner, std::size_t base,
                            std::size_t count, std::int64_t heir);
    /** Producer-dispatch-time forwarding decisions: rewrite @p pm's
     *  outputs with spatial destinations / suppression. */
    void spatialResolveProducer(TaskId id, DispatchMsg& pm);
    /** Consumer-dispatch-time rewrites: landing-mode inputs plus the
     *  waitSpatial gate snapshot. */
    void spatialRewriteConsumer(TaskId id, DispatchMsg& m);
    /** Free @p uid's landing-buffer reservations on completion. */
    void spatialRelease(TaskId uid);

    Noc& noc_;
    const MemImage& img_;
    const TaskTypeRegistry& registry_;
    DispatcherConfig cfg_;

    std::vector<TaskState> states_;
    std::vector<EdgeState> edges_;
    std::vector<GroupState> groups_;
    std::deque<TaskId> readyQ_;
    std::deque<Packet> sendQ_;

    std::vector<std::uint32_t> laneQueued_;
    std::vector<double> laneWork_;
    std::vector<std::uint64_t> laneDispatched_;
    std::uint64_t landingBrk_ = 0;
    std::size_t completed_ = 0;
    std::uint32_t curLevel_ = 0;
    std::vector<std::uint32_t> levelRemaining_;

    /** Last ready-queue depth sampled into the trace. */
    std::size_t tracedReadyDepth_ = static_cast<std::size_t>(-1);

    std::uint64_t pipesActivated_ = 0;
    std::uint64_t pipesDegraded_ = 0;
    std::uint64_t groupsFired_ = 0;
    std::uint64_t groupMembersDegraded_ = 0;
    std::uint64_t fillLinesRequested_ = 0;

    /** Per-lane measured service cycles: actual assignment vs. the
     *  shadow static owner-compute assignment (attribution). */
    std::vector<double> actualService_;
    std::vector<double> shadowService_;
    /** Service charged to the dispatch-time lane (pre-steal shadow):
     *  what each lane would have served had nothing migrated. */
    std::vector<double> stealShadowService_;
    double pipeOverlapCycles_ = 0;
    std::uint64_t mcastUnicastLinesEquiv_ = 0;

    std::uint64_t tasksSpawned_ = 0;
    std::uint64_t tasksStolen_ = 0;
    std::uint64_t stealHops_ = 0;

    // -- Spatial-mapping state (SchedPolicy::Spatial only) --

    /** AOT plan: lane per uid; spawned tasks extend it at spawn. */
    std::vector<std::int32_t> plannedLane_;
    /** Landing groups keyed by (consumer uid << 3) | port — ordered,
     *  so a consumer's groups are a contiguous key range. */
    std::map<std::uint64_t, SpatialGroup> spatialGroups_;
    std::vector<std::uint64_t> spatialLaneBufUsed_;
    std::uint64_t spatialBufPeak_ = 0;
    std::uint64_t spatialForwards_ = 0;
    std::uint64_t spatialSpills_ = 0;
    std::uint64_t spatialRemaps_ = 0;
    std::uint64_t spatialGroupsAllocated_ = 0;

    StatProbe readyWait_{"dispatcher.readyWait"};
};

} // namespace ts

#endif // TS_TASK_DISPATCHER_HH
