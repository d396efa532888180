/**
 * @file
 * Two-phase communication channels between ticked components.
 *
 * All inter-component traffic flows through Channel<T>.  A value
 * pushed during cycle C becomes visible to the consumer at cycle C+1
 * (after the simulator's commit phase), which makes the result of a
 * cycle independent of the order in which components are ticked.
 *
 * Channels are capacity-limited; a failed push() models back-pressure
 * and the producer is expected to retry on a later cycle.
 *
 * For the activity-driven simulator core a channel additionally
 *  - self-registers into a per-cycle dirty list on the first push of
 *    a cycle, so the commit phase walks only touched channels,
 *  - maintains an external live-channel counter, so quiescence is a
 *    counter check instead of a scan, and
 *  - carries a list of observer components the simulator wakes when a
 *    commit makes new values visible.
 * All three hooks are installed by Simulator::addChannel; a channel
 * used standalone (unit tests) behaves exactly as before.
 *
 * Partition boundaries
 * --------------------
 * Every channel has a producer and a consumer partition (declared at
 * Simulator::addChannel / makeChannel; both default to the
 * simulator's current partition).  A channel whose endpoints differ
 * is a *boundary* channel and uses producer-side credit occupancy
 * for back-pressure: canPush() reads a credit counter that pushes
 * raise immediately but pops lower only at the next commit.  Freed
 * capacity therefore becomes visible one cycle after the pop — the
 * same next-cycle rule values already follow — which makes the
 * producer's view independent of within-cycle tick order across
 * partitions.  Partitions are part of the simulated system's
 * structure, so the rule changes results only through the declared
 * endpoints.
 */

#ifndef TS_SIM_CHANNEL_HH
#define TS_SIM_CHANNEL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/ring.hh"

namespace ts
{

class Ticked;

/** Type-erased channel interface used by the simulator core. */
class ChannelBase
{
  public:
    explicit ChannelBase(std::string name) : name_(std::move(name)) {}
    virtual ~ChannelBase() = default;

    ChannelBase(const ChannelBase&) = delete;
    ChannelBase& operator=(const ChannelBase&) = delete;

    /** Move staged values into the visible queue (end of cycle). */
    virtual void commit() = 0;

    /** True when no value is visible or staged. */
    virtual bool quiescent() const = 0;

    /** True when any value is visible to the consumer. */
    virtual bool anyVisible() const = 0;

    /**
     * Register a component to be woken whenever a commit of this
     * channel leaves values visible (i.e. the consumer has something
     * to look at next cycle).
     */
    void addObserver(Ticked* t) { observers_.push_back(t); }

    /** Components woken on visible commits (simulator core). */
    const std::vector<Ticked*>& observers() const { return observers_; }

    /**
     * Install the simulator-side activity hooks (called by
     * Simulator::addChannel).  If the channel already holds values,
     * the counters are synchronized so late registration is safe.
     */
    void
    installHooks(std::int64_t* liveCounter,
                 std::vector<ChannelBase*>* dirtyList)
    {
        liveCounter_ = liveCounter;
        dirtyList_ = dirtyList;
        if (live_ && liveCounter_ != nullptr)
            ++*liveCounter_;
        if (dirty_ && dirtyList_ != nullptr)
            dirtyList_->push_back(this);
    }

    /**
     * Declare the producer/consumer partitions (called by
     * Simulator::addChannel before any traffic).  A cross-partition
     * channel switches to credit-based back-pressure; see the header
     * comment.
     */
    void
    setEndpoints(std::uint32_t producerPartition,
                 std::uint32_t consumerPartition)
    {
        producerPartition_ = producerPartition;
        consumerPartition_ = consumerPartition;
        boundary_ = producerPartition != consumerPartition;
    }

    std::uint32_t producerPartition() const { return producerPartition_; }
    std::uint32_t consumerPartition() const { return consumerPartition_; }

    /** Whether the endpoints live in different partitions. */
    bool boundary() const { return boundary_; }

    /** Diagnostic name. */
    const std::string& name() const { return name_; }

  protected:
    /** First push of the cycle enqueues us for the commit phase. */
    void
    markDirty()
    {
        if (!dirty_) {
            dirty_ = true;
            if (dirtyList_ != nullptr)
                dirtyList_->push_back(this);
        }
    }

    /** Producer-side push accounting on a boundary channel. */
    void
    notePush()
    {
        if (boundary_)
            ++credit_;
    }

    /**
     * Consumer-side pop accounting on a boundary channel: the freed
     * slot is credited back at the next commit, so the channel marks
     * itself dirty to be visited even on pop-only cycles.
     */
    void
    notePop()
    {
        if (!boundary_)
            return;
        ++pendingPops_;
        markDirty();
    }

    /** Commit-time credit application (boundary channels). */
    void
    applyCredits()
    {
        credit_ -= pendingPops_;
        pendingPops_ = 0;
    }

    /** Producer-visible occupancy of a boundary channel. */
    std::size_t credit() const { return credit_; }

    /** Commit served this channel; re-arm for the next cycle. */
    void clearDirty() { dirty_ = false; }

    /** Track the visible-or-staged liveness transition. */
    void
    setLive(bool v)
    {
        if (v != live_) {
            live_ = v;
            if (liveCounter_ != nullptr)
                *liveCounter_ += v ? 1 : -1;
        }
    }

  private:
    std::string name_;
    std::vector<Ticked*> observers_;
    std::int64_t* liveCounter_ = nullptr;
    std::vector<ChannelBase*>* dirtyList_ = nullptr;
    /** Producer-view occupancy (boundary channels only). */
    std::size_t credit_ = 0;
    /** Pops since the last commit (boundary channels only). */
    std::size_t pendingPops_ = 0;
    std::uint32_t producerPartition_ = 0;
    std::uint32_t consumerPartition_ = 0;
    bool boundary_ = false;
    bool live_ = false;
    bool dirty_ = false;
};

/**
 * A bounded FIFO with next-cycle visibility.
 *
 * @tparam T element type (moved in and out).
 */
template <typename T>
class Channel : public ChannelBase
{
  public:
    /**
     * @param name diagnostic name.
     * @param capacity maximum elements (visible + staged); 0 means
     *        unbounded (used only where the design doc justifies it).
     */
    Channel(std::string name, std::size_t capacity)
        : ChannelBase(std::move(name)), capacity_(capacity)
    {}

    /** Whether a push would be accepted this cycle.  On a boundary
     *  channel the producer sees credit occupancy: capacity freed by
     *  a pop becomes pushable one cycle later (see header). */
    bool
    canPush() const
    {
        if (capacity_ == 0)
            return true;
        if (boundary())
            return credit() < capacity_;
        return queue_.size() + staging_.size() < capacity_;
    }

    /** Stage a value for next-cycle visibility; false if full. */
    bool
    push(T v)
    {
        if (!canPush())
            return false;
        staging_.push_back(std::move(v));
        ++pushed_;
        notePush();
        markDirty();
        setLive(true);
        return true;
    }

    /** True when no value is currently visible. */
    bool empty() const { return queue_.empty(); }

    /** Number of currently visible values. */
    std::size_t size() const { return queue_.size(); }

    /** The oldest visible value; panics when empty. */
    const T&
    front() const
    {
        TS_ASSERT(!queue_.empty(), "pop/front on empty channel ", name());
        return queue_.front();
    }

    /** Remove and return the oldest visible value. */
    T
    pop()
    {
        TS_ASSERT(!queue_.empty(), "pop on empty channel ", name());
        T v = queue_.pop();
        notePop();
        if (queue_.empty() && staging_.empty())
            setLive(false);
        return v;
    }

    void
    commit() override
    {
        for (auto& v : staging_)
            queue_.push_back(std::move(v));
        staging_.clear();
        applyCredits();
        clearDirty();
        if (queue_.size() > maxOccupancy_)
            maxOccupancy_ = queue_.size();
    }

    bool
    quiescent() const override
    {
        return queue_.empty() && staging_.empty();
    }

    bool anyVisible() const override { return !queue_.empty(); }

    /** Total values ever pushed (for traffic statistics). */
    std::uint64_t pushed() const { return pushed_; }

    /** High-water mark of visible occupancy. */
    std::size_t maxOccupancy() const { return maxOccupancy_; }

    /** Configured capacity (0 = unbounded). */
    std::size_t capacity() const { return capacity_; }

  private:
    std::size_t capacity_;
    Ring<T> queue_;
    std::vector<T> staging_;
    std::uint64_t pushed_ = 0;
    std::size_t maxOccupancy_ = 0;
};

} // namespace ts

#endif // TS_SIM_CHANNEL_HH
