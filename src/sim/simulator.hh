/**
 * @file
 * The cycle-driven simulation core.
 *
 * A Simulator owns a set of Ticked components and Channels.  Each
 * simulated cycle proceeds in three phases:
 *
 *   1. fire all events scheduled for this cycle,
 *   2. tick every *active* component (order-independent thanks to
 *      channels' next-cycle visibility),
 *   3. commit every *dirty* channel: staged values become visible,
 *      and NoC links return the credits of slots popped this cycle
 *      (ChannelBase::setCreditReturn).
 *
 * Simulation ends when the system is quiescent: no pending events, no
 * in-flight channel values, and no component reporting busy().
 * Components must not create work spontaneously; all activity
 * descends from initial state or events.
 *
 * Activity-driven scheduling
 * --------------------------
 * The core walks an active list instead of every component.  A
 * component may remove itself from the list by calling sleepUntil() /
 * sleepOnWake() from inside its tick(); it is re-inserted by
 *
 *   - the timed wake it asked for (sleepUntil),
 *   - a commit of a channel it observes (ChannelBase::addObserver),
 *   - a slot freeing on a full channel it armed
 *     (ChannelBase::armSpaceWake: at the pop, or at the credit
 *     return's commit on a NoC link),
 *   - an event it owns firing (Simulator::schedule owner), or
 *   - an explicit Ticked::requestWake() from a producer.
 *
 * The contract that keeps results bit-identical to ticking everything:
 * a component may only sleep when its tick() is provably a total
 * no-op (no state change, no stat, no trace event) for every skipped
 * cycle, and every input that could change that must be wired to one
 * of the wake sources above.  Spurious wakes are always harmless —
 * sleeping is a one-shot request re-decided at the end of every
 * tick — so wake sources may over-approximate freely.  A wake
 * requested for a component the current cycle's walk has not reached
 * yet takes effect this cycle (matching direct intra-cycle calls such
 * as TaskUnit::deliver); otherwise it takes effect next cycle
 * (matching channel commit visibility).
 *
 * When the active list empties while events or timed wakes are still
 * pending, the simulator fast-forwards now_ straight to the next of
 * them; the skipped cycles are no-ops by the contract above.
 * setFastForward(false) restores the naive everything-every-cycle
 * loop for differential testing (--no-fast-forward).
 *
 * Observability
 * -------------
 * Each execution mode has one cycle body and one run loop, templated
 * on a compile-time Obs flag.  run() and step() dispatch once per
 * call on whether a host profiler or flight recorder is attached; the
 * Obs=false instantiation carries no observability code at all, so
 * the uninstrumented loop keeps its tight codegen.
 */

#ifndef TS_SIM_SIMULATOR_HH
#define TS_SIM_SIMULATOR_HH

#include <bit>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "obs/flight_recorder.hh"
#include "sim/channel.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ts
{

class Simulator;

namespace obs
{
class HostProfiler;
}

namespace trace
{
class Tracer;
}

/** Base class for every cycle-stepped hardware model. */
class Ticked
{
  public:
    explicit Ticked(std::string name) : name_(std::move(name)) {}
    virtual ~Ticked() = default;

    Ticked(const Ticked&) = delete;
    Ticked& operator=(const Ticked&) = delete;

    /** Advance one cycle. */
    virtual void tick(Tick now) = 0;

    /**
     * Whether the component holds pending internal work.  Used only
     * for quiescence detection; a component waiting on a channel that
     * is itself non-quiescent may report false.
     */
    virtual bool busy() const = 0;

    /** Contribute counters to the global statistics dump. */
    virtual void reportStats(StatSet&) const {}

    /**
     * Flush per-cycle bookkeeping deferred across slept cycles up to
     * (excluding) @p now.  Called by the simulator before run()
     * returns and at the end of step(), so externally observable
     * accounting matches a component that ticked every cycle.
     */
    virtual void catchUp(Tick now) { (void)now; }

    /**
     * Ensure this component ticks as soon as possible: during the
     * current cycle when the tick walk has not passed it yet,
     * otherwise on the next executed cycle.  Safe to call from
     * anywhere at any time; spurious wakes are harmless.
     */
    void requestWake();

    /** Diagnostic name. */
    const std::string& name() const { return name_; }

  protected:
    /**
     * From inside tick(): skip subsequent ticks until cycle
     * @p wakeAt (clamped to now+1) unless woken earlier.
     */
    void sleepUntil(Tick wakeAt);

    /** From inside tick(): skip subsequent ticks until a wake. */
    void sleepOnWake();

    /** The run's enabled tracer (Simulator::tracer), or nullptr;
     *  always nullptr before the component is registered. */
    trace::Tracer* tracer() const;

  private:
    friend class Simulator;

    std::string name_;
    Simulator* sim_ = nullptr;
    std::uint32_t simIndex_ = 0;
    /**
     * The earliest timed-wake heap entry currently queued for this
     * component, or kNoWakeTick.  sleepUntil() pushes a new entry
     * only when it is strictly earlier, so a component that re-sleeps
     * many times before its wake keeps one heap entry, not one per
     * sleep (wake-target dedup).
     */
    Tick queuedWakeAt_ = std::numeric_limits<Tick>::max();
    /** Sleep requested by the current tick (applied after it). */
    bool sleepPending_ = false;
    /** Currently absent from the active list. */
    bool sleeping_ = false;
    /** Timed wake for a pending sleep (kNoWakeTick = wake only). */
    Tick sleepAt_ = 0;
    /** Already recorded in the simulator's busy-sleeper list. */
    bool inBusyList_ = false;
};

/** Owns components and channels and advances simulated time. */
class Simulator
{
  public:
    /** Register a component (not owned); it starts active. */
    void add(Ticked* t);

    /** Register an externally owned channel. */
    void addChannel(ChannelBase* c);

    /** Create and own a channel, registering it automatically. */
    template <typename T>
    Channel<T>&
    makeChannel(const std::string& name, std::size_t capacity)
    {
        auto ch = std::make_unique<Channel<T>>(name, capacity);
        Channel<T>& ref = *ch;
        owned_.push_back(std::move(ch));
        addChannel(&ref);
        return ref;
    }

    /**
     * Schedule a callback @p delay cycles from now (delay >= 1).
     * A non-null @p owner is woken when the callback fires.
     */
    void schedule(Tick delay, EventQueue::Callback cb,
                  Ticked* owner = nullptr);

    /**
     * Schedule a *weak* callback @p delay cycles from now (delay >=
     * 1): it fires at its exact simulated tick in both execution
     * modes but never keeps the simulation alive — quiescence and
     * deadlock detection ignore it, and pending weak events are
     * dropped when run() returns.  Observers only (e.g. the timeline
     * sampler); a weak callback must not change simulated state.
     */
    void scheduleWeak(Tick delay, EventQueue::Callback cb);

    /** Current cycle. */
    Tick now() const { return now_; }

    /**
     * Run until quiescent.
     *
     * @param maxCycles upper bound; exceeding it raises fatal() with
     *        a deadlock diagnosis.
     * @return the cycle count at quiescence.
     */
    Tick run(Tick maxCycles);

    /**
     * Run exactly @p cycles (no quiescence check).
     *
     * Events land on the cycle they are scheduled for, so an event
     * scheduled exactly at now()+cycles does NOT fire during this
     * call: step(n) executes cycles [now, now+n) and leaves now() at
     * the boundary, exactly like n naive doCycle() iterations.  Both
     * execution modes preserve this trailing-event semantics.
     */
    void step(Tick cycles = 1);

    /** True when nothing can happen on any future cycle. */
    bool quiescent() const;

    /** Gather statistics from every registered component. */
    void reportStats(StatSet& stats) const;

    /**
     * Enable/disable activity-driven execution (default on).  When
     * off, every component ticks and every channel commits every
     * cycle — the naive reference loop used by --no-fast-forward
     * differential testing.  Results are bit-identical either way.
     */
    void setFastForward(bool on) { fastForward_ = on; }

    /** Whether activity-driven execution is enabled. */
    bool fastForward() const { return fastForward_; }

    /**
     * Flush deferred accounting on every component (see
     * Ticked::catchUp).  Called automatically before run()/step()
     * return; public so mid-run observers (the timeline sampler) can
     * align cumulative counters with a never-sleeping run.  Safe to
     * call repeatedly: catchUp is incremental and idempotent.
     */
    void catchUpAll();

    /**
     * Attach a flight recorder capturing sleep/wake/commit/event
     * records (null detaches).  Off the hot path when detached: the
     * hooks are single null-pointer branches, and the repeated-wake
     * fast path is untouched either way.
     */
    void setFlightRecorder(obs::FlightRecorder* rec);

    /** The attached flight recorder, or null. */
    obs::FlightRecorder* flightRecorder() const { return recorder_; }

    /**
     * Attach a host profiler attributing wall-ns to events, per-class
     * ticks, commits, fast-forward, and quiescence checks (null
     * detaches).  Components are classified by name when they
     * register.
     */
    void setHostProfiler(obs::HostProfiler* prof) { profiler_ = prof; }

    /**
     * Attach the run's tracer (null detaches).  A disabled tracer
     * counts as none: tracer() then stays null, so every
     * instrumentation site skips its work.
     */
    void setTracer(trace::Tracer* t);

    /** The attached tracer when it is enabled, else nullptr. */
    trace::Tracer* tracer() const { return tracer_; }

    /**
     * The run's statistics: every StatProbe of a component built on
     * this simulator samples into it, and Delta::run reports the
     * run's counters into it too.
     */
    StatSet& stats() { return stats_; }

  private:
    friend class Ticked;

    static constexpr Tick kNoWakeTick =
        std::numeric_limits<Tick>::max();

    /** One pending timed wake (lazily invalidated; see wake()). */
    struct TimedWake
    {
        Tick at;
        std::uint32_t idx;
        bool
        operator>(const TimedWake& o) const
        {
            if (at != o.at)
                return at > o.at;
            return idx > o.idx;
        }
    };

    /**
     * The cycle bodies and run loops, one per execution mode.  With
     * Obs the host-profiler and flight-recorder hooks are compiled
     * in; without it the loop carries no observability code.
     */
    template <bool Obs> void doCycleFast();
    template <bool Obs> void doCycleNaive();
    template <bool Obs> Tick runFast(Tick maxCycles);
    template <bool Obs> Tick runNaive(Tick maxCycles);
    template <bool Obs> void stepCycles(Tick cycles);

    /** Whether the Obs instantiations must run. */
    bool
    obsActive() const
    {
        return profiler_ != nullptr || recorder_ != nullptr;
    }

    /** Core of requestWake(); no-op in naive mode. */
    void wake(Ticked* t);

    /** Record a sleep request from inside t->tick(). */
    void sleepRequest(Ticked* t, Tick wakeAt);

    /** Move t out of the active list after its tick requested it. */
    void applySleep(Ticked* t);

    /** Wake every timed sleeper due at or before now_. */
    void wakeDueSleepers();

    /**
     * Cheap quiescence check equivalent to quiescent(): O(1)
     * event/live-channel precheck, then busy() only over active
     * components and the (lazily compacted) busy-sleeper list.
     */
    bool maybeQuiescent();

    /** maybeQuiescent(), timed into the profiler's Quiescence bucket
     *  under Obs when one is attached. */
    template <bool Obs> bool checkQuiescentFast();

    [[noreturn]] void deadlockFatal(Tick maxCycles, bool overrun);

    Tick now_ = 0;
    std::vector<Ticked*> ticked_;
    std::vector<ChannelBase*> channels_;
    std::vector<std::unique_ptr<ChannelBase>> owned_;
    EventQueue events_;

    bool fastForward_ = true;

    /**
     * Bitmap of awake component indices.  The tick walk scans it in
     * ascending index order — the same order the naive loop uses —
     * via countr_zero, so a fully active system walks at close to
     * plain-vector speed and sparse systems skip whole words.
     */
    std::vector<std::uint64_t> active_;
    /** The walk's per-cycle work queue: a copy of active_ whose bits
     *  are consumed lowest-first.  wake() adds a bit ahead of the
     *  cursor so the wake takes effect this cycle. */
    std::vector<std::uint64_t> pending_;
    /** Number of set bits in active_. */
    std::uint32_t activeCount_ = 0;
    /** Whether doCycleFast is inside the tick walk, and where. */
    bool walking_ = false;
    std::uint32_t walkPos_ = 0;
    /** Pending sleepUntil wakes, as a min-heap over (at, idx) via
     *  std::push_heap/pop_heap.  Stale entries wake spuriously. */
    std::vector<TimedWake> sleepHeap_;
    /** Sleeping components that reported busy() when they slept. */
    std::vector<std::uint32_t> sleepersBusy_;
    /** Channels with visible or staged values (incremental). */
    std::int64_t liveChannels_ = 0;
    /** Channels pushed this cycle, in first-push order. */
    std::vector<ChannelBase*> dirtyCh_;

    // Host-side performance counters (sim.host.*).
    std::uint64_t wallNs_ = 0;
    std::uint64_t ticksExecuted_ = 0;
    std::uint64_t cyclesExecuted_ = 0;
    std::uint64_t cyclesFastForwarded_ = 0;

    // Observability attachments live past every hot member so the
    // per-cycle working set keeps its pre-obs cache-line layout.
    /** Optional flight recorder (see setFlightRecorder). */
    obs::FlightRecorder* recorder_ = nullptr;
    /** Optional host profiler (see setHostProfiler). */
    obs::HostProfiler* profiler_ = nullptr;
    /** Enabled tracer or null (see setTracer). */
    trace::Tracer* tracer_ = nullptr;
    /** Per-component host-profiler tick bucket, filled by add(). */
    std::vector<unsigned char> profClass_;
    /** The run's statistics (see stats()). */
    StatSet stats_;
};

inline void
Ticked::requestWake()
{
    if (sim_ != nullptr)
        sim_->wake(this);
}

inline void
Ticked::sleepUntil(Tick wakeAt)
{
    if (sim_ != nullptr)
        sim_->sleepRequest(this, wakeAt);
}

inline void
Ticked::sleepOnWake()
{
    if (sim_ != nullptr)
        sim_->sleepRequest(this, Simulator::kNoWakeTick);
}

inline trace::Tracer*
Ticked::tracer() const
{
    return sim_ != nullptr ? sim_->tracer_ : nullptr;
}

inline void
Simulator::wake(Ticked* t)
{
    if (!fastForward_)
        return;
    t->sleepPending_ = false;
    if (!t->sleeping_)
        return;
    // The recorder hook sits below the repeated-wake early-out, so
    // the hot path (waking an already-awake component) never pays it.
    if (recorder_ != nullptr)
        recorder_->record(now_, obs::FlightRecorder::Kind::Wake,
                          &t->name_);
    t->sleeping_ = false;
    const std::uint32_t idx = t->simIndex_;
    active_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    ++activeCount_;
    // Mid-walk wakes ahead of the cursor tick this cycle (matching
    // direct intra-cycle calls); wakes at or behind it — including
    // every wake from the commit phase — tick next cycle (matching
    // channel commit visibility).
    if (walking_ && idx > walkPos_)
        pending_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
}

inline void
Simulator::sleepRequest(Ticked* t, Tick wakeAt)
{
    if (!fastForward_)
        return;
    t->sleepPending_ = true;
    t->sleepAt_ = wakeAt;
}

} // namespace ts

#endif // TS_SIM_SIMULATOR_HH
