#include "stream/write_engine.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "stream/landing.hh"
#include "trace/trace.hh"

namespace ts
{

WriteEngine::WriteEngine(std::string name, MemImage& img,
                         Scratchpad* spm, MemPortIf* mem,
                         PipeTxIf* pipeTx, WriteEngineCfg cfg)
    : Ticked(std::move(name)), img_(img), spm_(spm), mem_(mem),
      pipeTx_(pipeTx), cfg_(cfg)
{
}

void
WriteEngine::program(const WriteDesc& d, TokenFifo* src)
{
    TS_ASSERT(!active_, name(), ": program while active");
    TS_ASSERT(src != nullptr);
    d_ = d;
    src_ = src;
    src_->wakeOnPush(this);
    active_ = true;
    requestWake(); // the programming task unit ticks before us
    sawStreamEnd_ = false;
    pos_ = 0;
    curLine_.reset();
    fwdWords_ = 0;
    chunk_.clear();
    pipeForward_ = std::any_of(
        d_.forwards.begin(), d_.forwards.end(), [](const Forward& f) {
            return landingKind(f.landing) == LandingKind::Pipe;
        });
    sendQ_.clear();
    ++streamsRun_;

    if (auto* t = tracer()) {
        t->begin(t->track(name()),
                 pipeForward_ ? "write+pipe" : "write",
                 trace::args("base", d_.base));
    }
}

void
WriteEngine::queueLine(Addr line)
{
    // Suppressed write-back: every consumer receives the stream by
    // forwarding, so the line traffic never happens.  The count is
    // what a non-forwarded run would have written.
    if (!d_.writeBack) {
        ++linesSuppressed_;
        return;
    }
    // Coalesce repeats of the most recent line.
    if (!pendingLines_.empty() && pendingLines_.back() == line)
        return;
    pendingLines_.push_back(line);
}

bool
WriteEngine::flushTraffic()
{
    // Retry pending DRAM line writes.
    while (!pendingLines_.empty()) {
        if (!mem_->writeLine(pendingLines_.front())) {
            mem_->armSpaceWake(this);
            refused_ = true;
            return false;
        }
        pendingLines_.pop_front();
        ++linesWritten_;
    }
    // Retry pending forward chunks, in cut order.
    while (!sendQ_.empty()) {
        const ForwardChunk& c = sendQ_.front();
        if (!pipeTx_->sendForward(c)) {
            pipeTx_->armSpaceWake(this);
            refused_ = true;
            return false;
        }
        if (landingKind(c.to.landing) == LandingKind::Pipe)
            ++chunksSent_;
        else
            ++spatialChunksSent_;
        sendQ_.pop_front();
    }
    return true;
}

void
WriteEngine::cutChunk(bool done)
{
    for (const Forward& f : d_.forwards) {
        ForwardChunk c{f, fwdWords_, done, {}};
        if (landingKind(f.landing) == LandingKind::Pipe)
            c.toks = chunk_;
        sendQ_.push_back(std::move(c));
    }
    fwdWords_ = 0;
    chunk_.clear();
}

void
WriteEngine::tick(Tick now)
{
    if (!active_) {
        sleepOnWake(); // program() wakes us
        return;
    }
    const unsigned probes0 = probes();
    refused_ = false;
    if (drain(now) && sawStreamEnd_ && flushTraffic()) {
        active_ = false;
        if (auto* t = tracer())
            t->end(t->track(name()));
        sleepOnWake();
    } else if (refused_) {
        // Blocked: every tick would retry the refused line write or
        // chunk, and consume nothing, until the port or transmitter
        // frees a slot (the space wake armed at the refusal).
        sleepOnWake();
    } else if (src_->empty() && pendingLines_.empty() && sendQ_.empty() &&
               !sawStreamEnd_) {
        // Starved: nothing to retry and nothing to drain.  Until the
        // fabric pushes a token (which wakes us) every tick is a
        // no-op.  We tick before the fabric, so a token it pushes
        // this cycle is drained next cycle, as in the naive loop.
        sleepOnWake();
    }
    if (probeWatcher_ != nullptr && probes() != probes0)
        probeWatcher_->requestWake();
}

bool
WriteEngine::drain(Tick now)
{
    if (!flushTraffic())
        return false;

    std::uint32_t budget = cfg_.width;
    while (budget > 0 && !src_->empty() && !sawStreamEnd_) {
        if (pendingLines_.size() >= cfg_.writeQueueDepth ||
            sendQ_.size() >= cfg_.writeQueueDepth) {
            break;
        }

        // Scratchpad writes need a port this cycle.
        const std::int64_t elemOff =
            static_cast<std::int64_t>(pos_) * d_.strideWords;
        if (d_.space == Space::Spm && !spm_->tryAccess(now))
            break;

        const Token t = src_->pop();
        if (d_.space == Space::Dram) {
            const Addr a =
                d_.base + static_cast<Addr>(elemOff) * wordBytes;
            img_.writeWord(a, t.value);
            const Addr line = lineAlign(a);
            if (!curLine_ || *curLine_ != line) {
                if (curLine_)
                    queueLine(*curLine_);
                curLine_ = line;
            }
        } else {
            spm_->write(d_.base + static_cast<Addr>(elemOff), t.value);
        }
        if (!d_.forwards.empty()) {
            ++fwdWords_;
            if (pipeForward_)
                chunk_.push_back(t);
            if (fwdWords_ >= d_.chunkWords || t.streamEnd())
                cutChunk(t.streamEnd());
        }
        ++pos_;
        ++tokensWritten_;
        --budget;
        if (t.streamEnd()) {
            sawStreamEnd_ = true;
            if (curLine_) {
                queueLine(*curLine_);
                curLine_.reset();
            }
        }
    }
    return true;
}

void
WriteEngine::reportStats(StatSet& stats) const
{
    stats.set(name() + ".tokens", static_cast<double>(tokensWritten_));
    stats.set(name() + ".lines", static_cast<double>(linesWritten_));
    stats.set(name() + ".chunks", static_cast<double>(chunksSent_));
    stats.set(name() + ".streams", static_cast<double>(streamsRun_));
    if (linesSuppressed_ > 0 || spatialChunksSent_ > 0) {
        stats.set(name() + ".linesSuppressed",
                  static_cast<double>(linesSuppressed_));
        stats.set(name() + ".spatialChunks",
                  static_cast<double>(spatialChunksSent_));
    }
}

} // namespace ts
