/**
 * @file
 * A simple discrete-event queue used for modeling fixed latencies
 * (DRAM service, functional-unit pipelines) alongside the per-cycle
 * ticked components.
 *
 * Callbacks are stored in a small-buffer SmallFn instead of
 * std::function: the hot path (a lambda capturing a pointer and a
 * packet-sized payload) never touches the heap.  An event may carry an
 * owner component; the simulator wakes the owner when the event fires
 * so sleeping components resume on their scheduled latencies.
 */

#ifndef TS_SIM_EVENT_QUEUE_HH
#define TS_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace ts
{

class Ticked;

namespace obs
{
class FlightRecorder;
}

/**
 * A move-only callable with inline storage for small captures.
 *
 * Functors up to kInlineBytes that are nothrow-move-constructible are
 * stored inline; anything larger falls back to a single heap
 * allocation (the same cost std::function pays for every capture
 * beyond its tiny SSO buffer).
 */
class SmallFn
{
  public:
    SmallFn() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn>>>
    SmallFn(F&& f) // NOLINT: intentionally implicit, like std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn&>,
                      "SmallFn requires a void() callable");
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            new (buf_) Fn(std::forward<F>(f));
            ops_ = &kInlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn**>(buf_) =
                new Fn(std::forward<F>(f));
            ops_ = &kHeapOps<Fn>;
        }
    }

    SmallFn(SmallFn&& o) noexcept : ops_(o.ops_)
    {
        if (ops_ != nullptr)
            ops_->relocate(o.buf_, buf_);
        o.ops_ = nullptr;
    }

    SmallFn&
    operator=(SmallFn&& o) noexcept
    {
        if (this != &o) {
            reset();
            ops_ = o.ops_;
            if (ops_ != nullptr)
                ops_->relocate(o.buf_, buf_);
            o.ops_ = nullptr;
        }
        return *this;
    }

    SmallFn(const SmallFn&) = delete;
    SmallFn& operator=(const SmallFn&) = delete;

    ~SmallFn() { reset(); }

    void operator()() { ops_->invoke(buf_); }

    explicit operator bool() const { return ops_ != nullptr; }

  private:
    /** Inline capture budget; covers a this-pointer plus a packet. */
    static constexpr std::size_t kInlineBytes = 48;

    struct Ops
    {
        void (*invoke)(void*);
        /** Move-construct into @p to and destroy the source. */
        void (*relocate)(void* from, void* to);
        void (*destroy)(void*);
    };

    template <typename Fn>
    static constexpr Ops kInlineOps{
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* from, void* to) {
            new (to) Fn(std::move(*static_cast<Fn*>(from)));
            static_cast<Fn*>(from)->~Fn();
        },
        [](void* p) { static_cast<Fn*>(p)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops kHeapOps{
        [](void* p) { (**static_cast<Fn**>(p))(); },
        [](void* from, void* to) {
            *static_cast<Fn**>(to) = *static_cast<Fn**>(from);
        },
        [](void* p) { delete *static_cast<Fn**>(p); },
    };

    void
    reset()
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops* ops_ = nullptr;
};

/**
 * Min-heap of (tick, sequence) ordered callbacks.  Events scheduled
 * for the same tick fire in scheduling order (deterministic).
 */
class EventQueue
{
  public:
    using Callback = SmallFn;

    /**
     * Schedule a callback at an absolute tick (>= current tick).
     * When @p owner is non-null the component is woken (see
     * Ticked::requestWake) just after the callback fires, so a
     * sleeping owner reacts to its own latency events.
     */
    void schedule(Tick when, Callback cb, Ticked* owner = nullptr);

    /**
     * Schedule a *weak* callback: it fires like a normal event but
     * does not keep the simulation alive.  Weak events are invisible
     * to empty()/size()/nextTick(), so quiescence detection and
     * deadlock diagnosis ignore them; the fast-forward loop still
     * stops at weak ticks (see Simulator::runFast) so observers such
     * as the timeline sampler fire at exact simulated times without
     * perturbing execution.
     */
    void scheduleWeak(Tick when, Callback cb);

    /** Fire every event (strong, then weak) at or before @p now. */
    void fireUpTo(Tick now);

    /** Whether any *strong* event is pending. */
    bool empty() const { return heap_.empty(); }

    /** Tick of the earliest pending strong event; panics when empty. */
    Tick nextTick() const;

    /** Number of pending strong events. */
    std::size_t size() const { return heap_.size(); }

    /** Strong events fired so far (host-work proxy). */
    std::uint64_t fired() const { return fired_; }

    /** Whether any weak event is pending. */
    bool hasWeak() const { return !weakHeap_.empty(); }

    /** Tick of the earliest pending weak event; panics when empty. */
    Tick nextWeakTick() const;

    /** Drop all pending weak events (end-of-run cleanup). */
    void clearWeak();

    /** Attach a flight recorder notified on every strong-event fire
     *  (null detaches; weak observer events are not recorded). */
    void setRecorder(obs::FlightRecorder* rec) { recorder_ = rec; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
        Ticked* owner;
    };

    struct Later
    {
        bool
        operator()(const Entry& a, const Entry& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    std::priority_queue<Entry, std::vector<Entry>, Later> weakHeap_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fired_ = 0;
    obs::FlightRecorder* recorder_ = nullptr;
};

} // namespace ts

#endif // TS_SIM_EVENT_QUEUE_HH
