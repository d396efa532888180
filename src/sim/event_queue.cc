#include "sim/event_queue.hh"

#include "obs/flight_recorder.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace ts
{

void
EventQueue::schedule(Tick when, Callback cb, Ticked* owner)
{
    heap_.push(Entry{when, nextSeq_++, std::move(cb), owner});
}

void
EventQueue::scheduleWeak(Tick when, Callback cb)
{
    weakHeap_.push(Entry{when, nextSeq_++, std::move(cb), nullptr});
}

void
EventQueue::fireUpTo(Tick now)
{
    while (!heap_.empty() && heap_.top().when <= now) {
        // Move out before pop so the callback may schedule new events.
        Callback cb = std::move(const_cast<Entry&>(heap_.top()).cb);
        Ticked* owner = heap_.top().owner;
        heap_.pop();
        ++fired_;
        if (recorder_ != nullptr)
            recorder_->record(now, obs::FlightRecorder::Kind::Event,
                              owner != nullptr ? &owner->name()
                                               : nullptr);
        cb();
        if (owner != nullptr)
            owner->requestWake();
    }
    // Weak observers fire after all strong events of the tick, so
    // they sample post-event state deterministically.
    while (!weakHeap_.empty() && weakHeap_.top().when <= now) {
        Callback cb =
            std::move(const_cast<Entry&>(weakHeap_.top()).cb);
        weakHeap_.pop();
        cb();
    }
}

Tick
EventQueue::nextTick() const
{
    TS_ASSERT(!heap_.empty(), "nextTick on empty event queue");
    return heap_.top().when;
}

Tick
EventQueue::nextWeakTick() const
{
    TS_ASSERT(!weakHeap_.empty(),
              "nextWeakTick on empty weak event queue");
    return weakHeap_.top().when;
}

void
EventQueue::clearWeak()
{
    while (!weakHeap_.empty())
        weakHeap_.pop();
}

} // namespace ts
