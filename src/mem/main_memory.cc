#include "mem/main_memory.hh"

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace ts
{

MainMemory::MainMemory(Simulator& sim, const MainMemoryConfig& cfg,
                       Channel<MemReq>& reqIn, Channel<MemResp>& respOut)
    : Ticked("main_memory"), sim_(sim), cfg_(cfg), reqIn_(reqIn),
      respOut_(respOut), bankFreeAt_(cfg.numBanks, 0)
{
    if (cfg_.numBanks == 0 || cfg_.issueWidth == 0)
        fatal("main memory needs at least one bank and issue slot");
    // Sleep when fully drained; woken by request-channel commits and
    // by the response channel's space wake while responses are held.
    // In-flight reads need no ticks (responses are pure events).
    reqIn_.addObserver(this);
}

std::uint32_t
MainMemory::bankOf(Addr lineAddr) const
{
    return static_cast<std::uint32_t>((lineAddr / lineBytes) %
                                      cfg_.numBanks);
}

void
MainMemory::tick(Tick now)
{
    // The response channel freed a slot this cycle: retry the held
    // responses next cycle.  Scheduled ahead of this cycle's issues so
    // that, at serviceLatency 1, the held block still goes first.
    if (!held_.empty() && respOut_.canPush())
        sim_.schedule(1, [this]() { drainHeld(); });

    // Accept new requests into the pending queue.
    while (!reqIn_.empty() && pending_.size() < cfg_.queueCapacity)
        pending_.push_back(Pending{reqIn_.pop(), now});

    // Issue up to issueWidth requests whose banks are free.  Requests
    // may issue out of order across banks (FR-FCFS-like), but stay
    // in order within a bank because the queue is scanned front to
    // back and a bank accepts one issue per scan.
    std::uint32_t issued = 0;
    for (auto it = pending_.begin();
         it != pending_.end() && issued < cfg_.issueWidth;) {
        const std::uint32_t bank = bankOf(it->req.lineAddr);
        if (bankFreeAt_[bank] > now) {
            ++bankConflictStalls_;
            ++it;
            continue;
        }
        bankFreeAt_[bank] = now + cfg_.bankOccupancy;
        ++issued;
        queueWait_.sample(static_cast<double>(now - it->enqueuedAt));
        if (auto* t = tracer()) {
            if (now > it->enqueuedAt) {
                t->complete(t->track("dram.queue"), it->enqueuedAt,
                            now - it->enqueuedAt, "qwait",
                            trace::args("line", it->req.lineAddr));
            }
            t->complete(
                t->track("dram.bank" + std::to_string(bank)), now,
                it->req.write ? cfg_.bankOccupancy
                              : cfg_.serviceLatency,
                it->req.write ? "write" : "read",
                trace::args("line", it->req.lineAddr, "src",
                            it->req.srcNode));
        }
        if (it->req.write) {
            ++linesWritten_;
        } else {
            ++linesRead_;
            ++inflight_;
            MemResp resp{it->req.lineAddr, it->req.srcNode,
                         it->req.multicastMask, it->req.tag};
            sim_.schedule(cfg_.serviceLatency,
                          [this, resp]() { respond(resp); });
        }
        it = pending_.erase(it);
    }
    // Sampled after issuing, so the tick before a sleep records the
    // queue the sleep keeps.
    if (auto* t = tracer();
        t != nullptr && pending_.size() != tracedPending_) {
        tracedPending_ = pending_.size();
        t->counter("dram.queue", "pending",
                   static_cast<double>(tracedPending_));
    }

    // A non-empty pending queue must keep ticking: the per-scan
    // bankConflictStalls_ accounting depends on every cycle running.
    if (reqIn_.empty() && pending_.empty())
        sleepOnWake();
}

void
MainMemory::respond(const MemResp& resp)
{
    if (respOut_.push(resp)) {
        --inflight_;
        return;
    }
    // Response path back-pressured: hold it until a slot frees.
    const Tick now = sim_.now();
    if (now != heldCycle_) {
        heldCycle_ = now;
        heldAhead_ = 0;
    }
    if (cfg_.serviceLatency >= 2) {
        held_.insert(held_.begin() +
                         static_cast<std::ptrdiff_t>(heldAhead_++),
                     resp);
    } else {
        held_.push_back(resp);
    }
    respOut_.armSpaceWake(this);
}

void
MainMemory::drainHeld()
{
    while (!held_.empty() && respOut_.push(held_.front())) {
        held_.pop_front();
        --inflight_;
    }
    if (!held_.empty())
        respOut_.armSpaceWake(this);
}

bool
MainMemory::busy() const
{
    return !pending_.empty() || inflight_ > 0;
}

void
MainMemory::reportStats(StatSet& stats) const
{
    stats.set("mem.linesRead", static_cast<double>(linesRead_));
    stats.set("mem.linesWritten", static_cast<double>(linesWritten_));
    stats.set("mem.bankConflictStalls",
              static_cast<double>(bankConflictStalls_));
}

} // namespace ts
