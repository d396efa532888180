/**
 * @file
 * NoC message payloads exchanged between the dispatcher, lane task
 * units, and the memory controller — including the dynamic-spawn and
 * work-stealing protocols (DESIGN.md §7).  The vector-carrying
 * messages live here and travel boxed; the fixed-size ones are
 * defined with the packet (noc/packet.hh) and travel inline.
 */

#ifndef TS_TASK_MESSAGES_HH
#define TS_TASK_MESSAGES_HH

#include <optional>
#include <string>
#include <vector>

#include "cgra/token.hh"
#include "noc/packet.hh"
#include "stream/landing.hh"
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

    /** Landings this task reads from the lane's landing table:
     *  pipes it streams (need 0, released at completion), the
     *  multicast groups it waits to land (need = lines), and spatial
     *  groups it waits on (need = done markers, released at
     *  completion).  DESIGN.md §1, §8. */
    std::vector<LandingGate> landings;

    /** Whether a peer lane may steal this task while it queues.  Set
     *  by the dispatcher only for solo dispatches (no pipeline
     *  co-dispatch batch to keep in lane order). */
    bool stealable = false;
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

/** Victim lane -> thief lane: migrated tasks (back of the queue). */
struct StealGrantMsg
{
    std::uint32_t victimLane = 0;
    std::vector<DispatchMsg> tasks;
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
