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
    // Sleep when fully drained; woken by request-channel commits.
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
    // Accept new requests into the pending queue.
    while (!reqIn_.empty() && pending_.size() < cfg_.queueCapacity)
        pending_.push_back(Pending{reqIn_.pop(), now});
    if (trace::on() && pending_.size() != tracedPending_) {
        tracedPending_ = pending_.size();
        trace::active()->counter(
            "dram.queue", "pending",
            static_cast<double>(tracedPending_));
    }

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
        if (trace::on()) {
            auto* t = trace::active();
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
            sim_.schedule(cfg_.serviceLatency, [this, resp]() {
                if (respOut_.push(resp)) {
                    --inflight_;
                } else {
                    // Response path back-pressured: retry next cycle.
                    retryResponse(resp);
                }
            });
        }
        it = pending_.erase(it);
    }

    // A non-empty pending queue must keep ticking: the per-scan
    // bankConflictStalls_ accounting depends on every cycle running.
    if (reqIn_.empty() && pending_.empty())
        sleepOnWake();
}

void
MainMemory::retryResponse(const MemResp& resp)
{
    sim_.schedule(1, [this, resp]() {
        if (respOut_.push(resp))
            --inflight_;
        else
            retryResponse(resp);
    });
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
