/**
 * @file
 * NoC message payloads exchanged between the dispatcher, lane task
 * units, and the memory controller — including the dynamic-spawn and
 * work-stealing protocols (DESIGN.md §7).
 */

#ifndef TS_TASK_MESSAGES_HH
#define TS_TASK_MESSAGES_HH

#include <optional>
#include <string>
#include <vector>

#include "cgra/token.hh"
#include "task/task_graph.hh"
#include "task/task_types.hh"

namespace ts
{

/**
 * Work-stealing policy of the lane task units.  Idle units probe
 * peers over the NoC (nearest first, by hop distance); overloaded
 * units answer with queued tasks the dispatcher marked migratable.
 */
enum class StealPolicy : std::uint8_t
{
    None,      ///< never steal (seed behaviour)
    StealOne,  ///< take one task from the back of the victim's queue
    StealHalf, ///< take half of the victim's stealable backlog
};

/** Policy name for stats, sweeps, and cache keys. */
inline const char*
stealPolicyName(StealPolicy p)
{
    switch (p) {
      case StealPolicy::None: return "none";
      case StealPolicy::StealOne: return "steal-one";
      case StealPolicy::StealHalf: return "steal-half";
    }
    return "?";
}

/** Parse a steal-policy name; returns false on unknown input. */
inline bool
stealPolicyFromName(const std::string& s, StealPolicy& out)
{
    if (s == "none") { out = StealPolicy::None; return true; }
    if (s == "steal-one") { out = StealPolicy::StealOne; return true; }
    if (s == "steal-half") { out = StealPolicy::StealHalf; return true; }
    return false;
}

/**
 * One spatial-landing gate of a dispatch: the consumer must see
 * @p dones end-of-stream markers for @p group before it may start
 * (barrier semantics over forwarded producer streams, DESIGN.md §8).
 * The same list names the groups to release on task completion.
 */
struct SpatialWait
{
    std::uint64_t group = 0; ///< (consumer uid << 3) | input port
    std::uint32_t dones = 0; ///< forwarding producers to wait for
};

/**
 * Producer lane -> consumer lane: a spatially forwarded stream
 * chunk.  Timing-only — the functional words are already in the
 * global memory image; the consumer reads them from its landing zone
 * at scratchpad speed once the group's done markers are in.
 */
struct SpatialChunkMsg
{
    std::uint64_t group = 0;
    std::uint32_t words = 0; ///< may be 0 (pure done marker)
    bool done = false;       ///< producer's stream end for this group
};

/** Registration of a shared-read group at a member lane. */
struct GroupSetupMsg
{
    std::uint32_t group = 0;
    Addr rangeBase = 0;           ///< DRAM byte base of the range
    std::uint64_t words = 0;      ///< range length in words
    std::uint64_t landingOffset = 0; ///< SPM word offset of the copy
};

/** Dispatcher -> lane: run this task. */
struct DispatchMsg
{
    TaskId uid = 0;
    TaskTypeId type = 0;
    std::vector<StreamDesc> inputs;   ///< resolved descriptors
    std::vector<WriteDesc> outputs;   ///< resolved destinations
    double workEst = 1.0;

    /** Cycle the dispatcher committed this dispatch (end-to-end task
     *  latency statistics at the executing lane). */
    Tick dispatchedAt = 0;

    /** Gate start on this group's fill completion (kNoGroup: none). */
    std::uint32_t waitGroup = kNoGroup;

    /** Pipe buffers to release when the task completes. */
    std::vector<std::uint64_t> releasePipes;

    /** Spatial-landing groups gating task start (and released at
     *  completion); empty outside SchedPolicy::Spatial. */
    std::vector<SpatialWait> waitSpatial;

    /** Whether a peer lane may steal this task while it queues.  Set
     *  by the dispatcher only for solo dispatches (no pipeline
     *  co-dispatch batch to keep in lane order). */
    bool stealable = false;
};

/** Lane -> dispatcher: task began execution. */
struct StartMsg
{
    TaskId uid = 0;
    std::uint32_t lane = 0;
};

/** Lane -> dispatcher: task finished. */
struct CompleteMsg
{
    TaskId uid = 0;
    std::uint32_t lane = 0;
};

/** Producer lane -> consumer lane: forwarded stream chunk. */
struct PipeChunkMsg
{
    std::uint64_t pipeId = 0;
    std::vector<Token> toks;
};

/**
 * Lane -> dispatcher: a running task submits successors.  Travels the
 * same src->dst path as the spawner's CompleteMsg, and per-path FIFO
 * ordering guarantees the dispatcher integrates the spawn before it
 * sees the completion.
 */
struct SpawnMsg
{
    TaskId spawner = 0;
    std::uint32_t lane = 0;
    SpawnSet set;
};

/** Idle lane -> peer lane: probe for queued stealable work. */
struct StealRequestMsg
{
    std::uint32_t thiefLane = 0;
    std::uint32_t thiefNode = 0;
};

/** Victim lane -> thief lane: migrated tasks (back of the queue). */
struct StealGrantMsg
{
    std::uint32_t victimLane = 0;
    std::vector<DispatchMsg> tasks;
};

/** Victim lane -> thief lane: nothing stealable right now. */
struct StealDenyMsg
{
    std::uint32_t victimLane = 0;
};

/** Victim lane -> dispatcher: ownership of these uids moved. */
struct StealNotifyMsg
{
    std::uint32_t fromLane = 0;
    std::uint32_t toLane = 0;
    std::vector<TaskId> uids;
};

/** Tag bit marking a memory request as a shared-group fill. */
constexpr std::uint64_t kSharedFillTagBit = std::uint64_t{1} << 63;

/** Encode/decode shared-fill tags (group id in the low bits). */
inline std::uint64_t
sharedFillTag(std::uint32_t group)
{
    return kSharedFillTagBit | group;
}

inline bool
isSharedFillTag(std::uint64_t tag)
{
    return (tag & kSharedFillTagBit) != 0;
}

inline std::uint32_t
sharedFillGroup(std::uint64_t tag)
{
    return static_cast<std::uint32_t>(tag & 0xffffffffu);
}

} // namespace ts

#endif // TS_TASK_MESSAGES_HH
