/**
 * @file
 * The per-lane hardware task unit: a small task queue plus the state
 * machine that executes one task at a time — reconfigure the fabric,
 * program the stream engines, monitor completion, report back to the
 * dispatcher.
 */

#ifndef TS_TASK_TASK_UNIT_HH
#define TS_TASK_TASK_UNIT_HH

#include <deque>
#include <functional>
#include <optional>

#include "cgra/fabric.hh"
#include "noc/packet.hh"
#include "stream/landing.hh"
#include "stream/read_engine.hh"
#include "stream/write_engine.hh"
#include "task/messages.hh"
#include "trace/accounting.hh"

namespace ts
{

/** Wiring a TaskUnit needs from its lane. */
struct TaskUnitPorts
{
    Fabric* fabric = nullptr;
    std::vector<ReadEngine*> readEngines;
    std::vector<WriteEngine*> writeEngines;
    Landing* landing = nullptr; ///< the lane's landing table
    MemPortIf* memPort = nullptr; ///< builtin output traffic
    MemImage* image = nullptr;    ///< builtin functional effects
    StatSet* stats = nullptr;     ///< the run's set (type probes)

    /** Inject a packet at this lane's NoC node (false = retry). */
    std::function<bool(Packet)> send;

    std::uint32_t selfNode = 0;
    std::uint32_t dispatcherNode = 0;
    std::uint32_t laneIndex = 0;

    /** Work-stealing policy (None: the probe machinery is inert). */
    StealPolicy steal = StealPolicy::None;

    /** Peer lanes as (laneIndex, node), nearest first by NoC hop
     *  distance (ties by lane index) — the probe order. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> victims;
};

/** One lane's task queue and execution controller. */
class TaskUnit : public Ticked
{
  public:
    TaskUnit(std::string name, const TaskTypeRegistry& registry,
             TaskUnitPorts ports);

    /** Enqueue a dispatched task (called by the lane NoC adapter). */
    void deliver(DispatchMsg msg);

    // Steal protocol (called by the lane NoC adapter on arrival).

    /** A peer probes this unit for queued stealable work. */
    void onStealRequest(const StealRequestMsg& req);

    /** A victim granted tasks to this (thief) unit. */
    void onStealGrant(StealGrantMsg msg);

    /** A probed victim had nothing stealable. */
    void onStealDeny(const StealDenyMsg& msg);

    void tick(Tick now) override;
    void catchUp(Tick now) override;
    bool busy() const override;
    /** This unit's counters under its name, and, under stealing, its
     *  share of the run-wide delta.attrib.steal probe counts. */
    void reportStats(StatSet& stats) const override;

    /** Cycles this lane spent with a task in flight. */
    std::uint64_t busyCycles() const { return busyCycles_; }

    /** Builtin-output DRAM lines suppressed by spatial forwarding. */
    std::uint64_t spatialLinesSuppressed() const
    {
        return spatialLinesSuppressed_;
    }

    /** Spatial chunks this unit's builtin outputs sent (builtins
     *  never feed pipes). */
    std::uint64_t spatialChunksSent() const
    {
        return spatialChunksSent_;
    }

    /** Top-down cycle accounting (buckets sum to cycles ticked). */
    const CycleBuckets& cycleBuckets() const { return buckets_; }

    /** Current queue depth (including the running task). */
    std::size_t queueDepth() const
    {
        return inbox_.size() + (phase_ == Phase::Idle ? 0 : 1);
    }

  private:
    enum class Phase : std::uint8_t
    {
        Idle,
        WaitFill,
        Config,
        Running,
        BuiltinRead,
        BuiltinCompute,
        BuiltinWrite,
        Finish,
    };

    void beginTask(Tick now);
    void step(Tick now);
    void sendPending();
    void queueMsg(PktKind kind, PacketPayload payload,
                  std::uint32_t sizeWords);
    void queueMsgTo(std::uint32_t dstNode, PktKind kind,
                    PacketPayload payload, std::uint32_t sizeWords);
    /** Queue one chunk of the builtin output per forward of @p out. */
    void cutBuiltinChunk(const WriteDesc& out, bool done);
    /** Idle with an empty inbox: probe the next victim, if any. */
    void maybeProbeSteal();
    /** Re-arm the probe round (on deliver/grant/task finish). */
    void rearmSteal();
    bool dfgExecutionDone() const;
    CycleClass classify(bool fabricProgressed) const;
    void accountCycle();
    /** Set the class and busy flag of the cycles a sleep will skip;
     *  false when the sleep would not be exact. */
    bool sleepsAs(CycleClass gap, bool busy);

    const TaskTypeRegistry& registry_;
    TaskUnitPorts ports_;

    std::deque<DispatchMsg> inbox_;
    std::deque<Packet> sendQ_;

    Phase phase_ = Phase::Idle;
    DispatchMsg cur_;
    Tick startedAt_ = 0; ///< cycle cur_ was popped from the inbox
    Tick computeUntil_ = 0;
    std::uint64_t builtinLinesLeft_ = 0;
    Addr builtinWriteCursor_ = 0;
    /** Builtin forwarding: words accumulated toward the next chunk. */
    std::uint32_t builtinFwdWords_ = 0;

    std::uint64_t tasksRun_ = 0;
    std::uint64_t busyCycles_ = 0;
    std::uint64_t waitFillCycles_ = 0;
    std::uint64_t configWaitCycles_ = 0;
    std::uint64_t spatialLinesSuppressed_ = 0;
    std::uint64_t spatialChunksSent_ = 0;

    /** Steal probe state machine: which victim to ask next, whether a
     *  reply is outstanding, and whether a whole round came back
     *  empty (probing pauses until re-armed by new local activity). */
    std::uint32_t stealProbeIdx_ = 0;
    bool stealWaiting_ = false;
    bool stealExhausted_ = false;

    std::uint64_t stealReqSent_ = 0;
    std::uint64_t stealReqRecv_ = 0;
    std::uint64_t stealGrants_ = 0;
    std::uint64_t stealDenies_ = 0;
    std::uint64_t tasksStolenIn_ = 0;
    std::uint64_t tasksGivenOut_ = 0;

    CycleBuckets buckets_;
    std::uint64_t lastFirings_ = 0;
    CycleClass lastClass_ = CycleClass::Idle;
    bool stateSpanOpen_ = false;
    bool builtinWriteBlocked_ = false;

    // Slept-cycle accounting watermark: cycles in [expectedNext_, now)
    // were skipped while sleeping and are accounted in bulk as
    // gapClass_ on the next tick (or by catchUp at run end).  Every
    // sleep site must prove the skipped cycles would all have
    // classified as gapClass_ under per-cycle ticking.
    Tick expectedNext_ = 0;
    CycleClass gapClass_ = CycleClass::Idle;
    bool gapBusy_ = false; ///< skipped cycles also count as busyCycles_

    /** Per-task-type latency distributions, indexed by type id and
     *  made on a type's first completion here. */
    struct TypeProbes
    {
        StatProbe service;
        StatProbe latency;
    };
    std::vector<TypeProbes> typeProbes_;
    TypeProbes& typeProbes(TaskTypeId type);
};

} // namespace ts

#endif // TS_TASK_TASK_UNIT_HH
