/**
 * @file
 * Packets carried by the on-chip network.
 *
 * A packet addresses a *set* of destination nodes (dstMask); the mesh
 * replicates it along a dimension-order multicast tree, so a line
 * fetched once from memory can fan out to every subscriber lane —
 * the hardware mechanism behind TaskStream's inter-task read-sharing
 * recovery.
 *
 * The payload is a std::variant over the protocol messages: the
 * fixed-size ones are defined here and travel inline; the few that
 * carry vectors travel boxed, so line requests and responses — most
 * of the traffic — never allocate.
 */

#ifndef TS_NOC_PACKET_HH
#define TS_NOC_PACKET_HH

#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "cgra/token.hh"
#include "mem/request.hh"
#include "sim/types.hh"

namespace ts
{

/** Classes of traffic; receivers dispatch on this tag. */
enum class PktKind : std::uint8_t
{
    MemReq,       ///< line request toward a memory controller
    MemResp,      ///< line response (possibly multicast)
    TaskDispatch, ///< dispatcher -> lane: run this task
    TaskStart,    ///< lane -> dispatcher: task began execution
    TaskComplete, ///< lane -> dispatcher: task finished
    TaskSpawn,    ///< lane -> dispatcher: running task submits successors
    PipeChunk,    ///< producer lane -> consumer lane forwarded data
    SpatialChunk, ///< spatially mapped producer -> consumer landing
    SharedFill,   ///< multicast line fill into lane scratchpads
    StealRequest, ///< idle lane -> peer lane: probe for queued work
    StealGrant,   ///< victim lane -> thief lane: migrated tasks
    StealDeny,    ///< victim lane -> thief lane: nothing stealable
    StealNotify,  ///< victim lane -> dispatcher: ownership moved
    Generic,      ///< tests and miscellaneous control
};

/** Number of PktKind values (Generic is the last). */
constexpr unsigned kNumPktKinds =
    static_cast<unsigned>(PktKind::Generic) + 1;

/** Human-readable packet-kind name (tracing and diagnostics). */
inline const char*
pktKindName(PktKind k)
{
    switch (k) {
      case PktKind::MemReq: return "memReq";
      case PktKind::MemResp: return "memResp";
      case PktKind::TaskDispatch: return "taskDispatch";
      case PktKind::TaskStart: return "taskStart";
      case PktKind::TaskComplete: return "taskComplete";
      case PktKind::TaskSpawn: return "taskSpawn";
      case PktKind::PipeChunk: return "pipeChunk";
      case PktKind::SpatialChunk: return "spatialChunk";
      case PktKind::SharedFill: return "sharedFill";
      case PktKind::StealRequest: return "stealRequest";
      case PktKind::StealGrant: return "stealGrant";
      case PktKind::StealDeny: return "stealDeny";
      case PktKind::StealNotify: return "stealNotify";
      case PktKind::Generic: return "generic";
    }
    return "?";
}

/**
 * Owning, deep-copying handle to a message that carries vectors.
 * Boxing those few messages keeps the payload variant as small as
 * the fixed-size ones, so memory-traffic packets and multicast copies
 * never touch the heap.  Copy and delete go through functions bound
 * where the box is made, so @p T may be incomplete wherever a packet
 * is only moved, copied or destroyed (the NoC never sees it).
 */
template <class T>
class Boxed
{
  public:
    Boxed(T v)
        : p_(new T(std::move(v))), clone_(&cloneImpl),
          destroy_(&destroyImpl)
    {}

    Boxed(const Boxed& o)
        : p_(o.p_ != nullptr ? o.clone_(o.p_) : nullptr), clone_(o.clone_),
          destroy_(o.destroy_)
    {}

    Boxed(Boxed&& o) noexcept
        : p_(std::exchange(o.p_, nullptr)), clone_(o.clone_),
          destroy_(o.destroy_)
    {}

    Boxed&
    operator=(Boxed o) noexcept
    {
        std::swap(p_, o.p_);
        std::swap(clone_, o.clone_);
        std::swap(destroy_, o.destroy_);
        return *this;
    }

    ~Boxed()
    {
        if (p_ != nullptr)
            destroy_(p_);
    }

    T& operator*() { return *p_; }
    const T& operator*() const { return *p_; }

  private:
    static T* cloneImpl(const T* p) { return new T(*p); }
    static void destroyImpl(T* p) { delete p; }

    T* p_;
    T* (*clone_)(const T*);
    void (*destroy_)(T*);
};

// -- Fixed-size messages, carried inline in the payload --------------

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

/** Idle lane -> peer lane: probe for queued stealable work. */
struct StealRequestMsg
{
    std::uint32_t thiefLane = 0;
    std::uint32_t thiefNode = 0;
};

/** Victim lane -> thief lane: nothing stealable right now. */
struct StealDenyMsg
{
    std::uint32_t victimLane = 0;
};

// -- Vector-carrying messages, boxed (defined in task/messages.hh) ---

struct DispatchMsg;
struct SpawnMsg;
struct StealGrantMsg;
struct StealNotifyMsg;

/**
 * What a packet carries, typed by its kind.  Receivers read it with
 * std::get; a kind/payload mismatch throws std::bad_variant_access.
 * A plain integer serves PktKind::Generic (tests, misc control).
 */
using PacketPayload =
    std::variant<std::monostate, MemReq, MemResp, PipeChunkMsg,
                 SpatialChunkMsg, GroupSetupMsg, StartMsg, CompleteMsg,
                 StealRequestMsg, StealDenyMsg, Boxed<DispatchMsg>,
                 Boxed<SpawnMsg>, Boxed<StealGrantMsg>,
                 Boxed<StealNotifyMsg>, std::uint64_t>;

/** A network packet. */
struct Packet
{
    std::uint32_t src = 0;       ///< source node id
    std::uint32_t sizeWords = 1; ///< payload size for serialization
    std::uint64_t dstMask = 0;   ///< bit i set => deliver to node i

    /** Router-internal: earliest cycle the tail has fully arrived at
     *  the current hop (wormhole serialization). */
    Tick notBefore = 0;

    /** Cycle the packet entered the network (latency statistics). */
    Tick injectedAt = 0;

    PktKind kind = PktKind::Generic;

    /** Whether the packet was injected with >1 destination; copies
     *  made at tree splits inherit the flag so multicast traffic can
     *  be attributed separately from unicast. */
    bool mcast = false;

    PacketPayload payload; ///< typed by kind

    /** Convenience: unicast destination mask. */
    static std::uint64_t
    unicast(std::uint32_t node)
    {
        return std::uint64_t{1} << node;
    }
};

// Every channel slot and router hop moves a Packet by value; growing
// it costs memory and copy time on each of them.
static_assert(sizeof(PacketPayload) == 40,
              "inline payload messages must stay within 32 bytes");
static_assert(sizeof(Packet) == 80, "Packet layout grew");

} // namespace ts

#endif // TS_NOC_PACKET_HH
