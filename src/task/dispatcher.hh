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
#include <unordered_map>

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
    std::uint64_t spmLandingWords = 1u << 16; ///< shared-copy budget

    /** Spatial: per-lane landing-buffer budget (words).  A forwarded
     *  group whose buffer does not fit spills permanently to the
     *  DRAM round-trip. */
    std::uint64_t spatialBufferWords = 1u << 15;

    std::uint32_t selfNode = 0;
    std::uint32_t memNode = 0;
    std::vector<std::uint32_t> laneNodes;
};

/** The dispatcher hardware unit (one NoC node). */
class Dispatcher : public Ticked
{
  public:
    /** @p stats receives the ready-wait samples (the run's set). */
    Dispatcher(Noc& noc, const MemImage& img,
               const TaskTypeRegistry& registry,
               const DispatcherConfig& cfg, StatSet& stats);

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
    /** dispatcher.* plus the delta.* keys the dispatcher counts:
     *  tasksSpawned, the loadbalance, pipeline and multicast
     *  attribution, steal attribution under stealing, and the
     *  spatial counts under Spatial. */
    void reportStats(StatSet& stats) const override;

    /** Measured execution spans of all completed tasks (for
     *  TaskGraph::criticalPath). */
    std::vector<TaskSpan> taskSpans() const;

    /** Tasks currently ready but not yet issued to a lane (timeline
     *  probe). */
    std::size_t readyQueueDepth() const { return readyQ_.size(); }

  private:
    /** How an edge's data reaches its consumer: decided once, at
     *  the producer's dispatch (Open until then).  Only pipeline
     *  edges leave Open: Pipe streams through a forward, Memory
     *  reads the DRAM copy. */
    enum class Bind : std::uint8_t
    {
        Open,
        Pipe,
        Memory
    };

    struct EdgeState
    {
        DepEdge e;
        Bind bind = Bind::Open;
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
        std::uint64_t lines = 0; ///< DRAM lines the range spans
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
        std::int32_t lane = -1;       ///< consumer's pinned lane
        std::uint64_t bufWords = 0;   ///< lines-rounded port extent
        std::uint32_t expectedDones = 0; ///< forwarding producers
        bool spilled = false;         ///< else bufWords are reserved
    };

    /**
     * A ready root's co-dispatch plan: its pipeline closure in
     * dependence order truncated to the free lane slots, and the
     * coalescing-hold scan over it.
     * Both depend only on dependence and lane-queue state, which
     * changes only when an inbox packet is handled or a dispatch
     * commits; each bumps stateEpoch_, and a plan built under an
     * older epoch is rebuilt on its next use.
     */
    struct RootPlan
    {
        std::uint64_t epoch = 0;
        std::vector<TaskId> closure;
        /** A closure member has a pipeline consumer outside it that
         *  is soon joinable: hold the root while the hold lasts. */
        bool soonConsumer = false;
    };

    /** Outcome of one dispatch attempt on the ready-queue head. */
    enum class Attempt : std::uint8_t
    {
        Advanced,  ///< dispatched, dropped or rotated the head
        Waiting,   ///< bulk-synchronous barrier: retry next cycle
        LanesFull  ///< no queue slot for the head until a packet
    };

    /** Loaded and spawned tasks enter the live graph one way: each
     *  edge through addEdge (its consumer not yet dispatched; a
     *  completed producer leaves it satisfied), then admit(base) sets
     *  the levels of tasks [base, end) and queues the ready ones. */
    void addEdge(const DepEdge& e);
    void admit(std::size_t base);
    void processInbox(Tick now);
    void onComplete(const CompleteMsg& msg, Tick now);
    void onSpawn(const SpawnMsg& msg, Tick now);
    void onStealNotify(const StealNotifyMsg& msg, Tick now);
    /** Transfer queue/work bookkeeping of a stolen, not-yet-complete
     *  task from its current lane to @p toLane. */
    void applyStealMove(TaskId uid, std::uint32_t toLane);
    /** Panic if the not-yet-completed subgraph has a cycle. */
    void checkLiveAcyclic() const;
    Attempt tryDispatchHead(Tick now);
    /** The head's plan under the current epoch (rebuilt if stale). */
    RootPlan& planFor(TaskId root, std::uint32_t freeSlots);
    bool hasSoonJoinableConsumer(const std::vector<TaskId>& closure) const;
    std::vector<TaskId> pipelineClosure(TaskId root) const;
    std::optional<std::vector<TaskId>>
    tryJoinClosure(TaskId c, std::vector<TaskId> set,
                   unsigned depth) const;
    bool soonJoinable(TaskId c, unsigned depth) const;
    std::int32_t pickLane(TaskId id,
                          const std::vector<std::uint32_t>& extraLoad,
                          const std::vector<double>& extraWork) const;
    /** Bind member @p m of @p batch (placed, in dependence order):
     *  its inputs, its pipeline out-edges and its spatial forwards. */
    void bind(DispatchMsg& m, std::vector<DispatchMsg>& batch);
    void enqueueDispatch(DispatchMsg msg);
    void fireGroup(std::uint32_t groupId);

    /** The lane Static and Spatial pin uid to: its planned lane,
     *  else uid % lanes. */
    std::uint32_t plannedLane(TaskId id) const;
    /** Assign planned lanes to tasks spawned by @p spawner
     *  (inheritance plus the imbalance-remap escape hatch). */
    void spatialPlanSpawned(TaskId spawner, std::size_t base,
                            std::size_t count, std::int64_t heir);
    /** Spatial forwards of producer output @p oi of @p pm, and
     *  suppression of its write-back when every reader lands it. */
    void bindSpatialOutput(DispatchMsg& pm, std::size_t oi);
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

    /** Plans of ready roots, dropped when the root dispatches. */
    std::unordered_map<TaskId, RootPlan> plans_;
    std::uint64_t stateEpoch_ = 1;
    /** Pipeline closures built (host cost proxy, sim.host.*). */
    std::uint64_t closureEvals_ = 0;

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

    StatProbe readyWait_;
};

} // namespace ts

#endif // TS_TASK_DISPATCHER_HH
