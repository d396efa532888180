#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/host_profiler.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace ts
{

namespace
{

std::uint64_t
nsSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/**
 * Times its scope into one host-profiler bucket when Obs is set and a
 * profiler is attached.  The Obs=false instantiation compiles to
 * nothing, which keeps the uninstrumented loops free of profiling.
 */
template <bool Obs>
class ProfScope
{
  public:
    ProfScope(obs::HostProfiler* prof, unsigned bucket)
        : prof_(prof), bucket_(bucket)
    {
        if constexpr (Obs) {
            if (prof_ != nullptr)
                t0_ = obs::HostProfiler::now();
        }
    }

    ~ProfScope()
    {
        if constexpr (Obs) {
            if (prof_ != nullptr)
                prof_->add(bucket_, t0_, obs::HostProfiler::now());
        }
    }

    ProfScope(const ProfScope&) = delete;
    ProfScope& operator=(const ProfScope&) = delete;

  private:
    obs::HostProfiler* prof_;
    unsigned bucket_;
    obs::HostProfiler::Clock::time_point t0_{};
};

template <typename W>
void
heapPush(std::vector<W>& h, W w)
{
    h.push_back(w);
    std::push_heap(h.begin(), h.end(), std::greater<W>{});
}

template <typename W>
W
heapPop(std::vector<W>& h)
{
    std::pop_heap(h.begin(), h.end(), std::greater<W>{});
    const W w = h.back();
    h.pop_back();
    return w;
}

} // namespace

void
ChannelBase::fireSpaceWakes()
{
    for (Ticked* t : spaceWaiters_)
        t->requestWake();
    spaceWaiters_.clear();
}

void
Simulator::add(Ticked* t)
{
    TS_ASSERT(t != nullptr);
    TS_ASSERT(t->sim_ == nullptr,
              "component registered with two simulators: ", t->name());
    t->sim_ = this;
    t->simIndex_ = static_cast<std::uint32_t>(ticked_.size());
    ticked_.push_back(t);
    profClass_.push_back(static_cast<unsigned char>(
        obs::HostProfiler::tickBucketForName(t->name())));
    const std::uint32_t idx = t->simIndex_;
    if ((idx >> 6) >= active_.size()) {
        active_.push_back(0);
        pending_.push_back(0);
    }
    active_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    ++activeCount_;
}

void
Simulator::addChannel(ChannelBase* c)
{
    TS_ASSERT(c != nullptr);
    channels_.push_back(c);
    c->installHooks(&liveChannels_, &dirtyCh_);
}

void
Simulator::schedule(Tick delay, EventQueue::Callback cb, Ticked* owner)
{
    TS_ASSERT(delay >= 1, "events must be scheduled at least 1 cycle out");
    events_.schedule(now_ + delay, std::move(cb), owner);
}

void
Simulator::scheduleWeak(Tick delay, EventQueue::Callback cb)
{
    TS_ASSERT(delay >= 1,
              "weak events must be scheduled at least 1 cycle out");
    events_.scheduleWeak(now_ + delay, std::move(cb));
}

void
Simulator::setFlightRecorder(obs::FlightRecorder* rec)
{
    recorder_ = rec;
    events_.setRecorder(rec);
}

void
Simulator::setTracer(trace::Tracer* t)
{
    tracer_ = (t != nullptr && t->enabled()) ? t : nullptr;
}

void
Simulator::applySleep(Ticked* t)
{
    t->sleepPending_ = false;
    t->sleeping_ = true;
    if (recorder_ != nullptr)
        recorder_->record(now_, obs::FlightRecorder::Kind::Sleep,
                          &t->name_,
                          t->sleepAt_ == kNoWakeTick
                              ? obs::FlightRecorder::kNoAux
                              : t->sleepAt_);
    const std::uint32_t idx = t->simIndex_;
    active_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    --activeCount_;
    if (t->sleepAt_ != kNoWakeTick) {
        // Clamp: sleeping until a past/current cycle means "tick
        // again next cycle", never re-entry into the current one.
        const Tick at = t->sleepAt_ > now_ + 1 ? t->sleepAt_ : now_ + 1;
        // Wake-target dedup: skip the push when an entry at or before
        // this target is already queued — that entry wakes us no
        // later (spuriously at worst), and we re-decide then.
        if (at < t->queuedWakeAt_) {
            t->queuedWakeAt_ = at;
            heapPush(sleepHeap_, TimedWake{at, idx});
        }
    }
    if (!t->inBusyList_ && t->busy()) {
        t->inBusyList_ = true;
        sleepersBusy_.push_back(t->simIndex_);
    }
}

void
Simulator::wakeDueSleepers()
{
    while (!sleepHeap_.empty() && sleepHeap_.front().at <= now_) {
        const TimedWake w = heapPop(sleepHeap_);
        Ticked* t = ticked_[w.idx];
        // Release the dedup slot before the (possibly stale,
        // spurious-safe) wake so a re-sleep can queue a fresh target.
        if (w.at == t->queuedWakeAt_)
            t->queuedWakeAt_ = kNoWakeTick;
        wake(t);
    }
}

bool
Simulator::maybeQuiescent()
{
    if (!events_.empty() || liveChannels_ != 0)
        return false;
    for (std::size_t w = 0; w < active_.size(); ++w) {
        for (std::uint64_t bits = active_[w]; bits != 0;
             bits &= bits - 1) {
            const std::size_t idx =
                (w << 6) + std::countr_zero(bits);
            if (ticked_[idx]->busy())
                return false;
        }
    }
    // Re-sample the busy-sleeper list: a sleeper whose busy() dropped
    // (e.g. via an event) or that has since woken is compacted away.
    std::size_t w = 0;
    for (std::size_t r = 0; r < sleepersBusy_.size(); ++r) {
        Ticked* t = ticked_[sleepersBusy_[r]];
        if (t->sleeping_ && t->busy())
            sleepersBusy_[w++] = sleepersBusy_[r];
        else
            t->inBusyList_ = false;
    }
    sleepersBusy_.resize(w);
    if (w != 0)
        return false;
    TS_ASSERT(quiescent(),
              "incremental quiescence disagrees with the full scan");
    return true;
}

template <bool Obs>
void
Simulator::doCycleFast()
{
    if (tracer_ != nullptr)
        tracer_->setNow(now_);
    {
        ProfScope<Obs> ps(profiler_, obs::HostProfiler::Events);
        events_.fireUpTo(now_);
    }

    pending_ = active_;
    walking_ = true;
    for (std::size_t w = 0; w < pending_.size(); ++w) {
        while (pending_[w] != 0) {
            const std::uint32_t idx = static_cast<std::uint32_t>(
                (w << 6) + std::countr_zero(pending_[w]));
            pending_[w] &= pending_[w] - 1;
            walkPos_ = idx;
            Ticked* t = ticked_[idx];
            t->sleepPending_ = false;
            {
                ProfScope<Obs> ps(profiler_, profClass_[idx]);
                t->tick(now_);
            }
            ++ticksExecuted_;
            if (t->sleepPending_)
                applySleep(t);
        }
    }
    walking_ = false;

    {
        ProfScope<Obs> ps(profiler_, obs::HostProfiler::Commit);
        for (ChannelBase* c : dirtyCh_) {
            c->commit();
            if (c->anyVisible()) {
                if constexpr (Obs) {
                    if (recorder_ != nullptr)
                        recorder_->record(
                            now_, obs::FlightRecorder::Kind::Commit,
                            &c->name());
                }
                for (Ticked* o : c->observers())
                    wake(o);
            }
        }
        dirtyCh_.clear();
    }

    ++now_;
    ++cyclesExecuted_;
}

template <bool Obs>
void
Simulator::doCycleNaive()
{
    if (tracer_ != nullptr)
        tracer_->setNow(now_);
    {
        ProfScope<Obs> ps(profiler_, obs::HostProfiler::Events);
        events_.fireUpTo(now_);
    }
    std::size_t idx = 0;
    for (Ticked* t : ticked_) {
        ProfScope<Obs> ps(profiler_, profClass_[idx++]);
        t->tick(now_);
    }
    ticksExecuted_ += ticked_.size();
    {
        ProfScope<Obs> ps(profiler_, obs::HostProfiler::Commit);
        for (ChannelBase* c : channels_)
            c->commit();
        if constexpr (Obs) {
            // Record only channels pushed this cycle (the dirty list
            // is maintained by the push hooks in both modes).
            if (recorder_ != nullptr) {
                for (ChannelBase* c : dirtyCh_)
                    if (c->anyVisible())
                        recorder_->record(
                            now_, obs::FlightRecorder::Kind::Commit,
                            &c->name());
            }
        }
        dirtyCh_.clear();
    }
    ++now_;
    ++cyclesExecuted_;
}

bool
Simulator::quiescent() const
{
    if (!events_.empty())
        return false;
    for (const ChannelBase* c : channels_) {
        if (!c->quiescent())
            return false;
    }
    for (const Ticked* t : ticked_) {
        if (t->busy())
            return false;
    }
    return true;
}

void
Simulator::catchUpAll()
{
    for (Ticked* t : ticked_)
        t->catchUp(now_);
}

Tick
Simulator::run(Tick maxCycles)
{
    const auto t0 = std::chrono::steady_clock::now();
    // One dispatch per run: the Obs=false loops carry no
    // observability code at all (the sub-2%-overhead contract in obs/).
    const bool o = obsActive();
    const Tick end = fastForward_
                         ? (o ? runFast<true>(maxCycles)
                              : runFast<false>(maxCycles))
                         : (o ? runNaive<true>(maxCycles)
                              : runNaive<false>(maxCycles));
    // Weak observers beyond quiescence never fire; drop them so their
    // captures cannot dangle.
    events_.clearWeak();
    wallNs_ += nsSince(t0);
    return end;
}

template <bool Obs>
bool
Simulator::checkQuiescentFast()
{
    ProfScope<Obs> ps(profiler_, obs::HostProfiler::Quiescence);
    return maybeQuiescent();
}

template <bool Obs>
Tick
Simulator::runFast(Tick maxCycles)
{
    const Tick start = now_;
    const Tick limit = start + maxCycles;
    for (;;) {
        {
            ProfScope<Obs> ps(profiler_, obs::HostProfiler::FastForward);
            wakeDueSleepers();
        }
        if (activeCount_ == 0) {
            if (checkQuiescentFast<Obs>()) {
                catchUpAll();
                return now_;
            }
            // Idle fast-forward: nothing ticks until the next event
            // or timed wake; every skipped cycle is a no-op.
            Tick target = kNoWakeTick;
            if (!events_.empty())
                target = events_.nextTick();
            if (!sleepHeap_.empty() && sleepHeap_.front().at < target)
                target = sleepHeap_.front().at;
            if (target == kNoWakeTick) {
                // Not quiescent, yet nothing can ever wake: a missed
                // wake (component porting bug) or an unconsumed
                // channel value.  Diagnose loudly.  Pending weak
                // observers don't count — they cannot create work.
                deadlockFatal(maxCycles, /*overrun=*/false);
            }
            // Weak observers (timeline samples) never keep the run
            // alive but do pin the fast-forward so they fire at
            // their exact tick; target == now_ falls through to
            // doCycleFast, which fires them and ticks nothing.
            if (events_.hasWeak() &&
                events_.nextWeakTick() < target)
                target = events_.nextWeakTick();
            if (target > now_) {
                const Tick to = target < limit ? target : limit;
                cyclesFastForwarded_ += to - now_;
                now_ = to;
                if (to == target)
                    continue; // wake the due sleepers at `to`
            }
        } else if (checkQuiescentFast<Obs>()) {
            catchUpAll();
            return now_;
        }
        if (now_ - start >= maxCycles) {
            // Overrun: reuse the incremental liveness state for the
            // final check instead of a second full scan.
            if (maybeQuiescent()) {
                catchUpAll();
                return now_;
            }
            deadlockFatal(maxCycles, /*overrun=*/true);
        }
        doCycleFast<Obs>();
    }
}

template <bool Obs>
Tick
Simulator::runNaive(Tick maxCycles)
{
    const Tick start = now_;
    while (now_ - start < maxCycles) {
        bool q;
        {
            ProfScope<Obs> ps(profiler_, obs::HostProfiler::Quiescence);
            q = quiescent();
        }
        if (q) {
            catchUpAll();
            return now_;
        }
        doCycleNaive<Obs>();
    }
    if (quiescent()) {
        catchUpAll();
        return now_;
    }
    deadlockFatal(maxCycles, /*overrun=*/true);
}

void
Simulator::deadlockFatal(Tick maxCycles, bool overrun)
{
    std::ostringstream os;
    if (overrun)
        os << "simulation did not quiesce within " << maxCycles
           << " cycles; still live:";
    else
        os << "simulation deadlocked at cycle " << now_
           << ": no component active and no event or timed wake "
              "pending; still live:";
    if (!events_.empty())
        os << " [" << events_.size() << " events]";
    for (const ChannelBase* c : channels_) {
        if (!c->quiescent())
            os << " channel:" << c->name();
    }
    for (const Ticked* t : ticked_) {
        if (t->busy())
            os << " busy:" << t->name();
    }
    // Who is stuck: every busy sleeper, the wake it is (not) waiting
    // for, and the state of each channel that could wake it.  This is
    // the missed-wake diagnosis: a busy component sleeping forever on
    // channels that are all empty means a producer forgot a wake; a
    // visible channel here means the observer list is miswired.
    os << "\nstuck components:";
    bool anyStuck = false;
    for (const Ticked* t : ticked_) {
        if (!t->sleeping_ || !t->busy())
            continue;
        anyStuck = true;
        os << "\n  " << t->name() << ": sleeping ";
        if (t->sleepAt_ == kNoWakeTick)
            os << "until woken";
        else
            os << "until @" << t->sleepAt_;
        bool anyCh = false;
        for (const ChannelBase* c : channels_) {
            const auto& obsList = c->observers();
            bool watches = false;
            for (const Ticked* o : obsList)
                if (o == t)
                    watches = true;
            if (!watches)
                continue;
            os << (anyCh ? ", " : "; observes ") << c->name() << " [";
            if (c->anyVisible())
                os << "visible";
            else if (!c->quiescent())
                os << "staged";
            else
                os << "empty";
            os << "]";
            anyCh = true;
        }
        if (!anyCh)
            os << "; observes no channel";
    }
    if (!anyStuck)
        os << " none (no busy sleeper)";
    if (recorder_ != nullptr && recorder_->size() > 0) {
        os << "\nflight recorder (last " << recorder_->size()
           << " of " << recorder_->capacity() << " records):\n";
        recorder_->dump(os);
    }
    fatal(os.str());
}

void
Simulator::step(Tick cycles)
{
    const auto t0 = std::chrono::steady_clock::now();
    if (obsActive())
        stepCycles<true>(cycles);
    else
        stepCycles<false>(cycles);
    catchUpAll();
    wallNs_ += nsSince(t0);
}

template <bool Obs>
void
Simulator::stepCycles(Tick cycles)
{
    if (!fastForward_) {
        for (Tick i = 0; i < cycles; ++i)
            doCycleNaive<Obs>();
        return;
    }
    const Tick end = now_ + cycles;
    while (now_ < end) {
        wakeDueSleepers();
        if (activeCount_ == 0) {
            Tick target = end;
            if (!events_.empty() && events_.nextTick() < target)
                target = events_.nextTick();
            if (!sleepHeap_.empty() && sleepHeap_.front().at < target)
                target = sleepHeap_.front().at;
            if (events_.hasWeak() && events_.nextWeakTick() < target)
                target = events_.nextWeakTick();
            if (target > now_) {
                cyclesFastForwarded_ += target - now_;
                now_ = target;
                continue;
            }
        }
        doCycleFast<Obs>();
    }
}

void
Simulator::reportStats(StatSet& stats) const
{
    for (const Ticked* t : ticked_)
        t->reportStats(stats);
    stats.set("sim.cycles", static_cast<double>(now_));
    stats.set("sim.host.wallNs", static_cast<double>(wallNs_));
    stats.set("sim.host.ticksExecuted",
              static_cast<double>(ticksExecuted_));
    stats.set("sim.host.cyclesFastForwarded",
              static_cast<double>(cyclesFastForwarded_));
    stats.set("sim.host.eventsFired",
              static_cast<double>(events_.fired()));
    stats.set("sim.host.avgActiveComponents",
              cyclesExecuted_ == 0
                  ? 0.0
                  : static_cast<double>(ticksExecuted_) /
                        static_cast<double>(cyclesExecuted_));
    if (profiler_ != nullptr)
        profiler_->reportStats(stats);
}

} // namespace ts
