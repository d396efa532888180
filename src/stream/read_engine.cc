#include "stream/read_engine.hh"

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace ts
{

namespace
{

const char*
streamKindName(StreamDesc::Kind k)
{
    switch (k) {
      case StreamDesc::Kind::Linear: return "linear";
      case StreamDesc::Kind::Strided2D: return "strided2d";
      case StreamDesc::Kind::Indirect: return "indirect";
      case StreamDesc::Kind::Csr: return "csr";
      case StreamDesc::Kind::CsrGather: return "csrGather";
      case StreamDesc::Kind::CsrIndirectSeg: return "csrIndirectSeg";
      case StreamDesc::Kind::PipeIn: return "pipeIn";
    }
    return "?";
}

} // namespace

ReadEngine::ReadEngine(std::string name, const MemImage& img,
                       Scratchpad* spm, MemPortIf* mem, Landing* landing,
                       ReadEngineCfg cfg)
    : Ticked(std::move(name)), img_(img), spm_(spm), mem_(mem),
      landing_(landing),
      cfg_(cfg), ptrF_(img, spm, mem, cfg.fetcher),
      idxF_(img, spm, mem, cfg.fetcher), dataF_(img, spm, mem,
                                                cfg.fetcher)
{
    ptrF_.wakeOnArrival(this);
    idxF_.wakeOnArrival(this);
    dataF_.wakeOnArrival(this);
}

void
ReadEngine::program(const StreamDesc& d, TokenFifo* dest)
{
    TS_ASSERT(!active_, name(), ": program while active");
    if (d.kind != StreamDesc::Kind::PipeIn && d.count == 0)
        fatal(name(), ": zero-length streams are not supported");
    if (d.repeat == 0)
        fatal(name(), ": repeat must be >= 1");

    d_ = d;
    dest_ = dest;
    if (dest_ != nullptr)
        dest_->wakeOnPop(this);
    active_ = true;
    requestWake(); // the programming task unit ticks before us
    genPos_ = outer_ = inner_ = 0;
    loop_ = 0;
    rep2_ = 0;
    idxGenPos_ = ptrGenPos_ = 0;
    havePrevPtr_ = false;
    prevPtr_ = 0;
    haveLo_ = false;
    loVal_ = 0;
    segIdx_ = 0;
    segRemaining_ = 0;
    segCursor_ = 0;
    repeatLeft_ = 0;
    sawStreamEnd_ = false;
    ++streamsRun_;

    ptrF_.reset(d.idxSpace);
    idxF_.reset(d.idxSpace);
    // Landing mode only ever applies to the Linear stride-1 Dram
    // shapes the dispatcher marks (spatially forwarded ranges).
    dataF_.reset(d.dataSpace,
                 d.spatialLanding && d.dataSpace == Space::Dram &&
                     d.kind == StreamDesc::Kind::Linear);

    if (auto* t = tracer()) {
        t->begin(t->track(name()), streamKindName(d_.kind),
                 trace::args("count", d_.count, "repeat", d_.repeat));
    }
}

bool
ReadEngine::waitingOnMem() const
{
    if (!active_ || d_.kind == StreamDesc::Kind::PipeIn)
        return false;
    return ptrF_.outstanding() + idxF_.outstanding() +
               dataF_.outstanding() >
           0;
}

bool
ReadEngine::waitingOnPipe() const
{
    return active_ && d_.kind == StreamDesc::Kind::PipeIn &&
           !landing_->hasToken(d_.pipeId);
}

Addr
ReadEngine::elemAddr(Space sp, Addr base, std::int64_t elemWords) const
{
    if (sp == Space::Dram)
        return base + static_cast<Addr>(elemWords) * wordBytes;
    return base + static_cast<Addr>(elemWords); // Spm word offset
}

namespace
{

std::uint8_t
positionFlags(std::uint64_t i, std::uint64_t fixedSegLen,
              std::uint64_t n)
{
    std::uint8_t f = 0;
    if (fixedSegLen != 0 && (i + 1) % fixedSegLen == 0)
        f |= kSegEnd;
    if (i + 1 == n)
        f |= kSegEnd | kStreamEnd;
    return f;
}

} // namespace

void
ReadEngine::pumpCsrPointers()
{
    // Stage 0: fetch ptr[0..count].
    std::uint32_t budget = cfg_.genPerCycle;
    while (budget > 0 && ptrGenPos_ <= d_.count && !ptrF_.windowFull()) {
        ptrF_.push(elemAddr(d_.idxSpace, d_.ptrBase,
                            static_cast<std::int64_t>(ptrGenPos_)),
                   0);
        ++ptrGenPos_;
        --budget;
    }

    // Consume pointer pairs into segment bounds.
    while (segRemaining_ == 0 && segIdx_ < d_.count &&
           ptrF_.headReady()) {
        const std::int64_t v = asInt(ptrF_.popHead().value);
        if (!havePrevPtr_) {
            prevPtr_ = v;
            havePrevPtr_ = true;
            continue;
        }
        const std::int64_t len = v - prevPtr_;
        if (len <= 0) {
            fatal(name(), ": CSR segment ", segIdx_,
                  " is empty or negative (len=", len,
                  "); segments must be non-empty");
        }
        segRemaining_ = static_cast<std::uint64_t>(len);
        segCursor_ = prevPtr_;
        prevPtr_ = v;
    }
}

void
ReadEngine::pumpIndirectSegPointers()
{
    // Stage A: fetch the segment-id list.
    std::uint32_t budget = cfg_.genPerCycle;
    while (budget > 0 && idxGenPos_ < d_.count && !idxF_.windowFull()) {
        idxF_.push(elemAddr(d_.idxSpace, d_.idxBase,
                            static_cast<std::int64_t>(idxGenPos_)),
                   0);
        ++idxGenPos_;
        --budget;
    }

    // Stage B: ids -> ptr pair addresses.
    while (idxF_.headReady() && ptrF_.roomFor(2)) {
        const std::int64_t v = asInt(idxF_.popHead().value);
        ptrF_.push(elemAddr(d_.idxSpace, d_.ptrBase, v), 0);
        ptrF_.push(elemAddr(d_.idxSpace, d_.ptrBase, v + 1), 0);
    }

    // Stage C: ptr pairs -> segment bounds.
    while (segRemaining_ == 0 && segIdx_ < d_.count &&
           ptrF_.headReady()) {
        const std::int64_t v = asInt(ptrF_.popHead().value);
        if (!haveLo_) {
            loVal_ = v;
            haveLo_ = true;
            continue;
        }
        const std::int64_t len = v - loVal_;
        if (len <= 0) {
            fatal(name(), ": CsrIndirectSeg segment ", segIdx_,
                  " is empty (len=", len, "); filter empty ids");
        }
        segRemaining_ = static_cast<std::uint64_t>(len);
        segCursor_ = loVal_;
        haveLo_ = false;
    }
}

void
ReadEngine::generateSegments()
{
    // Stage 1: turn segment bounds into element addresses.
    std::uint32_t budget = cfg_.genPerCycle;
    const bool viaGather = d_.kind == StreamDesc::Kind::CsrGather;
    WordFetcher& target = viaGather ? idxF_ : dataF_;
    const Addr base = viaGather ? d_.idxBase : d_.dataBase;
    const Space sp = viaGather ? d_.idxSpace : d_.dataSpace;
    while (budget > 0 && segRemaining_ > 0 && !target.windowFull()) {
        std::uint8_t flags = 0;
        if (segRemaining_ == 1) {
            flags |= kSegEnd;
            if (segIdx_ + 1 == d_.count)
                flags |= kStreamEnd;
        }
        target.push(elemAddr(sp, base, segCursor_), flags);
        ++segCursor_;
        --segRemaining_;
        --budget;
        if (segRemaining_ == 0)
            ++segIdx_;
    }
}

void
ReadEngine::generate(Tick now)
{
    switch (d_.kind) {
      case StreamDesc::Kind::Linear: {
        std::uint32_t budget = cfg_.genPerCycle;
        while (budget > 0 && loop_ < d_.loops && !dataF_.windowFull()) {
            std::uint8_t f = 0;
            if (d_.fixedSegLen != 0 &&
                (genPos_ + 1) % d_.fixedSegLen == 0) {
                f |= kSegEnd;
            }
            if (genPos_ + 1 == d_.count) {
                f |= kSegEnd | kSeg2End;
                if (loop_ + 1 == d_.loops)
                    f |= kStreamEnd;
            }
            dataF_.push(
                elemAddr(d_.dataSpace, d_.dataBase,
                         static_cast<std::int64_t>(genPos_) *
                             d_.strideWords),
                f);
            --budget;
            if (++genPos_ == d_.count) {
                genPos_ = 0;
                ++loop_;
            }
        }
        break;
      }
      case StreamDesc::Kind::Strided2D: {
        std::uint32_t budget = cfg_.genPerCycle;
        while (budget > 0 && outer_ < d_.count && !dataF_.windowFull()) {
            const std::int64_t off =
                static_cast<std::int64_t>(outer_) * d_.outerStrideWords +
                static_cast<std::int64_t>(inner_) * d_.innerStrideWords;
            std::uint8_t f = 0;
            if (inner_ + 1 == d_.innerLen) {
                f |= kSegEnd;
                if (rep2_ + 1 == d_.rowRepeat) {
                    f |= kSeg2End;
                    if (outer_ + 1 == d_.count)
                        f |= kStreamEnd;
                }
            }
            dataF_.push(elemAddr(d_.dataSpace, d_.dataBase, off), f);
            --budget;
            if (++inner_ == d_.innerLen) {
                inner_ = 0;
                if (++rep2_ == d_.rowRepeat) {
                    rep2_ = 0;
                    ++outer_;
                }
            }
        }
        break;
      }
      case StreamDesc::Kind::Indirect: {
        std::uint32_t budget = cfg_.genPerCycle;
        while (budget > 0 && idxGenPos_ < d_.count &&
               !idxF_.windowFull()) {
            idxF_.push(elemAddr(d_.idxSpace, d_.idxBase,
                                static_cast<std::int64_t>(idxGenPos_)),
                       positionFlags(idxGenPos_, d_.fixedSegLen,
                                     d_.count));
            ++idxGenPos_;
            --budget;
        }
        break;
      }
      case StreamDesc::Kind::Csr:
      case StreamDesc::Kind::CsrGather:
        pumpCsrPointers();
        generateSegments();
        break;
      case StreamDesc::Kind::CsrIndirectSeg:
        pumpIndirectSegPointers();
        generateSegments();
        break;
      case StreamDesc::Kind::PipeIn:
        break; // nothing to generate
    }

    // Gather stage: indices -> data addresses.
    if (d_.kind == StreamDesc::Kind::Indirect ||
        d_.kind == StreamDesc::Kind::CsrGather) {
        std::uint32_t budget = cfg_.genPerCycle;
        while (budget > 0 && idxF_.headReady() && !dataF_.windowFull()) {
            const Token t = idxF_.popHead();
            dataF_.push(elemAddr(d_.dataSpace, d_.dataBase,
                                 asInt(t.value) * d_.strideWords),
                        t.flags);
            --budget;
        }
    }

    ptrF_.pump(now);
    idxF_.pump(now);
    dataF_.pump(now);
}

void
ReadEngine::deliver()
{
    std::uint32_t budget = cfg_.deliverWidth;
    while (budget > 0) {
        if (repeatLeft_ == 0) {
            if (d_.kind == StreamDesc::Kind::PipeIn) {
                if (!landing_->hasToken(d_.pipeId))
                    return;
                repeatTok_ = landing_->popToken(d_.pipeId);
            } else {
                if (!dataF_.headReady())
                    return;
                repeatTok_ = dataF_.popHead();
            }
            repeatLeft_ = d_.repeat;
        }
        Token out{repeatTok_.value,
                  repeatLeft_ == 1 ? repeatTok_.flags : std::uint8_t{0}};
        if (dest_ != nullptr && !dest_->push(out))
            return; // port back-pressure
        --repeatLeft_;
        --budget;
        ++tokensDelivered_;
        if (out.streamEnd())
            sawStreamEnd_ = true;
    }
}

bool
ReadEngine::generationDone() const
{
    switch (d_.kind) {
      case StreamDesc::Kind::Linear:
        return loop_ == d_.loops && dataF_.settled();
      case StreamDesc::Kind::Strided2D:
        return outer_ == d_.count && dataF_.settled();
      case StreamDesc::Kind::Indirect:
        return idxGenPos_ == d_.count && idxF_.settled() &&
               dataF_.settled();
      case StreamDesc::Kind::Csr:
        return segIdx_ == d_.count && segRemaining_ == 0 &&
               ptrF_.settled() && dataF_.settled();
      case StreamDesc::Kind::CsrGather:
      case StreamDesc::Kind::CsrIndirectSeg:
        return segIdx_ == d_.count && segRemaining_ == 0 &&
               ptrF_.settled() && idxF_.settled() && dataF_.settled();
      case StreamDesc::Kind::PipeIn:
        return sawStreamEnd_;
    }
    return false;
}

void
ReadEngine::tick(Tick now)
{
    if (!active_) {
        sleepOnWake(); // program() wakes us
        return;
    }
    const unsigned probes0 = probes();
    const std::uint64_t delivered = tokensDelivered_;
    const std::uint64_t moves =
        ptrF_.moves() + idxF_.moves() + dataF_.moves();
    generate(now);
    deliver();
    if (generationDone() && repeatLeft_ == 0) {
        active_ = false;
        if (auto* t = tracer())
            t->end(t->track(name()));
        sleepOnWake();
    } else if (const bool refused = ptrF_.portRefused() ||
                                    idxF_.portRefused() ||
                                    dataF_.portRefused();
               tokensDelivered_ == delivered &&
               ptrF_.moves() + idxF_.moves() + dataF_.moves() == moves &&
               d_.kind != StreamDesc::Kind::PipeIn &&
               !issuable(ptrF_) && !issuable(idxF_) &&
               !issuable(dataF_) &&
               ((repeatLeft_ == 0 && !dataF_.headReady() &&
                 (waitingOnMem() || refused)) ||
                (dest_ != nullptr && dest_->full()))) {
        // Stalled: this tick moved nothing through any window, no
        // window can issue or its request was refused by the port,
        // and delivery waits on a line in flight or on a full fabric
        // port.  Until a line arrives, the port frees a slot or the
        // fabric pops the port (each wakes us) every tick would
        // repeat this one, so skip them.
        if (refused)
            mem_->armSpaceWake(this);
        sleepOnWake();
    }
    if (probeWatcher_ != nullptr && probes() != probes0)
        probeWatcher_->requestWake();
}

std::uint64_t
ReadEngine::linesRequested() const
{
    return ptrF_.linesRequested() + idxF_.linesRequested() +
           dataF_.linesRequested();
}

void
ReadEngine::reportStats(StatSet& stats) const
{
    stats.set(name() + ".tokens", static_cast<double>(tokensDelivered_));
    stats.set(name() + ".lines", static_cast<double>(linesRequested()));
    stats.set(name() + ".spmReads",
              static_cast<double>(ptrF_.spmReads() + idxF_.spmReads() +
                                  dataF_.spmReads()));
    stats.set(name() + ".streams", static_cast<double>(streamsRun_));
    if (dataF_.landingWords() > 0) {
        stats.set(name() + ".landingWords",
                  static_cast<double>(dataF_.landingWords()));
        stats.set(name() + ".landingLines",
                  static_cast<double>(dataF_.landingLines()));
    }
}

} // namespace ts
