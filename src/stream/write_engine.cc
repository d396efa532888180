#include "stream/write_engine.hh"

#include "sim/logging.hh"
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
    TS_ASSERT(d.toMemory || d.pipeDstMask != 0,
              name(), ": write stream with no destination");
    d_ = d;
    src_ = src;
    active_ = true;
    requestWake(); // the programming task unit ticks before us
    sawStreamEnd_ = false;
    pos_ = 0;
    curLine_.reset();
    chunk_.clear();
    chunkPending_ = false;
    spatialAccum_ = 0;
    pendingSpatial_.clear();
    ++streamsRun_;

    if (trace::on()) {
        auto* t = trace::active();
        t->begin(t->track(name()),
                 d_.pipeDstMask != 0 ? "write+pipe" : "write",
                 trace::args("base", d_.base));
    }
}

void
WriteEngine::queueLine(Addr line)
{
    // Spatially suppressed write-back: every consumer receives the
    // stream by forwarding, so the line traffic never happens.  The
    // count is what a non-forwarded run would have written.
    if (d_.spatialSuppress) {
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
        if (!mem_->writeLine(pendingLines_.front()))
            return false;
        pendingLines_.pop_front();
        ++linesWritten_;
    }
    // Retry a pending pipe chunk.
    if (chunkPending_) {
        if (!pipeTx_->sendChunk(d_.pipeDstMask, d_.pipeId, chunk_))
            return false;
        chunk_.clear();
        chunkPending_ = false;
        ++chunksSent_;
    }
    // Retry pending spatial forwards toward consumer landing zones.
    while (!pendingSpatial_.empty()) {
        const SpatialSend& s = pendingSpatial_.front();
        if (!pipeTx_->sendSpatial(s.node, s.group, s.words, s.done))
            return false;
        pendingSpatial_.pop_front();
        ++spatialChunksSent_;
    }
    return true;
}

void
WriteEngine::tick(Tick now)
{
    if (!active_) {
        sleepOnWake(); // program() wakes us
        return;
    }

    if (!flushTraffic())
        return;

    std::uint32_t budget = cfg_.width;
    while (budget > 0 && !src_->empty() && !sawStreamEnd_) {
        if (pendingLines_.size() >= cfg_.writeQueueDepth)
            break;
        if (chunkPending_)
            break;
        if (pendingSpatial_.size() >= cfg_.writeQueueDepth)
            break;

        // Scratchpad writes need a port this cycle.
        const std::int64_t elemOff =
            static_cast<std::int64_t>(pos_) * d_.strideWords;
        if (d_.toMemory && d_.space == Space::Spm &&
            !spm_->tryAccess(now)) {
            break;
        }

        const Token t = src_->pop();
        if (d_.toMemory) {
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
                spm_->write(d_.base + static_cast<Addr>(elemOff),
                            t.value);
            }
        }
        if (d_.pipeDstMask != 0) {
            chunk_.push_back(t);
            if (chunk_.size() >= d_.chunkWords || t.streamEnd())
                chunkPending_ = true;
        }
        if (!d_.spatialDsts.empty()) {
            ++spatialAccum_;
            if (spatialAccum_ >= d_.chunkWords || t.streamEnd()) {
                for (const WriteDesc::SpatialDst& dst : d_.spatialDsts)
                    pendingSpatial_.push_back(
                        SpatialSend{dst.node, dst.group, spatialAccum_,
                                    t.streamEnd()});
                spatialAccum_ = 0;
            }
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

    if (sawStreamEnd_ && flushTraffic()) {
        active_ = false;
        if (trace::on()) {
            auto* t = trace::active();
            t->end(t->track(name()));
        }
        sleepOnWake();
    }
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
