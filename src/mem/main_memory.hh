/**
 * @file
 * A banked main-memory (DRAM) timing model.
 *
 * Lines map to banks by low-order line-address interleaving.  Each
 * bank can begin at most one access per `bankOccupancy` cycles; the
 * device as a whole accepts at most `issueWidth` new accesses per
 * cycle (channel bandwidth).  Every access completes `serviceLatency`
 * cycles after issue.  Requests that cannot issue wait in a bounded
 * queue, back-pressuring the producer channel.  Responses the
 * response channel refuses are held in order and retried together on
 * the cycle after it frees a slot.
 */

#ifndef TS_MEM_MAIN_MEMORY_HH
#define TS_MEM_MAIN_MEMORY_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/request.hh"
#include "sim/channel.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace ts
{

/** Configuration for the MainMemory model. */
struct MainMemoryConfig
{
    std::uint32_t numBanks = 16;
    Tick serviceLatency = 40;  ///< issue-to-data latency, cycles
    Tick bankOccupancy = 4;    ///< min cycles between issues per bank
    std::uint32_t issueWidth = 2;   ///< accesses issued per cycle
    std::size_t queueCapacity = 64; ///< pending-request buffer
};

/** Cycle-level banked DRAM model. */
class MainMemory : public Ticked
{
  public:
    /**
     * @param sim simulator this model schedules response events on.
     * @param cfg timing parameters.
     * @param reqIn requests from the interconnect.
     * @param respOut serviced responses toward the interconnect.
     */
    MainMemory(Simulator& sim, const MainMemoryConfig& cfg,
               Channel<MemReq>& reqIn, Channel<MemResp>& respOut);

    void tick(Tick now) override;
    bool busy() const override;
    void reportStats(StatSet& stats) const override;

    /** Lines read so far (Fig-5 traffic metric). */
    std::uint64_t linesRead() const { return linesRead_; }

    /** Lines written so far. */
    std::uint64_t linesWritten() const { return linesWritten_; }

    /** Requests queued or in service, responses held included
     *  (timeline probe). */
    std::size_t queueDepth() const
    {
        return pending_.size() + static_cast<std::size_t>(inflight_);
    }

  private:
    /** A request waiting to issue, with its arrival cycle (queue-wait
     *  attribution in the trace). */
    struct Pending
    {
        MemReq req;
        Tick enqueuedAt;
    };

    std::uint32_t bankOf(Addr lineAddr) const;
    /** A read's response is due: push it or hold it. */
    void respond(const MemResp& resp);
    /** Retry the held responses in order, up to the first refusal. */
    void drainHeld();

    Simulator& sim_;
    MainMemoryConfig cfg_;
    Channel<MemReq>& reqIn_;
    Channel<MemResp>& respOut_;

    std::deque<Pending> pending_;
    std::vector<Tick> bankFreeAt_;
    /**
     * Responses the response channel refused, in retry order.  Each
     * cycle the held block retries as one, after the responses due
     * that cycle when serviceLatency >= 2 (those were scheduled
     * earlier) and before them when it is 1, so a refused fresh
     * response goes ahead of older ones in the first case and behind
     * them in the second.  heldAhead_ counts this cycle's (heldCycle_)
     * refusals already placed ahead.
     */
    std::deque<MemResp> held_;
    Tick heldCycle_ = 0;
    std::size_t heldAhead_ = 0;
    std::size_t tracedPending_ = static_cast<std::size_t>(-1);

    std::uint64_t linesRead_ = 0;
    std::uint64_t linesWritten_ = 0;
    std::uint64_t bankConflictStalls_ = 0;
    std::uint64_t inflight_ = 0;

    StatProbe queueWait_{sim_.stats(), "dram.queueWait"};
};

} // namespace ts

#endif // TS_MEM_MAIN_MEMORY_HH
