#include "cgra/fabric.hh"

#include "sim/logging.hh"

namespace ts
{

Fabric::Fabric(std::string name, const FabricConfig& cfg)
    : Ticked(std::move(name)), cfg_(cfg)
{
}

void
Fabric::configure(const MappedDfg* m, Tick now)
{
    TS_ASSERT(m != nullptr && m->dfg != nullptr);
    TS_ASSERT(drained(), name(), ": configure with tokens in flight");
    requestWake(); // the configuring task unit ticks before us

    if (m == current_) {
        configReadyAt_ = now; // already loaded: free switch
        return;
    }

    const Dfg& dfg = *m->dfg;
    const Tick cost =
        cfg_.configBaseCycles + cfg_.configPerNodeCycles * dfg.numNodes();
    configReadyAt_ = now + cost;
    ++reconfigs_;
    configCycles_ += cost;
    current_ = m;

    // Build route state.
    routes_.clear();
    routes_.resize(m->routes.size());
    for (std::size_t i = 0; i < m->routes.size(); ++i) {
        const auto& r = m->routes[i];
        routes_[i].dstNode = r.edge.dst;
        routes_[i].slot = r.edge.slot;
        const std::size_t hops = r.path.size() > 1 ? r.path.size() - 1 : 1;
        routes_[i].regs.assign(hops, std::nullopt);
    }

    // Build PE state.
    pes_.clear();
    pes_.resize(dfg.numNodes());
    inExt_.assign(dfg.numInputs(), TokenFifo(cfg_.portFifoDepth));
    outExt_.assign(dfg.numOutputs(), TokenFifo(cfg_.portFifoDepth));
    for (std::uint32_t id = 0; id < dfg.numNodes(); ++id) {
        PeState& pe = pes_[id];
        pe.id = id;
        pe.node = &dfg.node(id);
        if (pe.node->op == Op::Input)
            pe.ext = &inExt_[pe.node->portIdx];
        if (pe.node->op == Op::Output)
            pe.ext = &outExt_[pe.node->portIdx];
        if (isAccumulator(pe.node->op))
            pe.acc = accIdentity(pe.node->op);
    }
    for (std::size_t i = 0; i < routes_.size(); ++i)
        pes_[m->routes[i].edge.src].outRoutes.push_back(
            static_cast<std::uint32_t>(i));
}

TokenFifo&
Fabric::inPort(std::uint32_t port)
{
    TS_ASSERT(port < inExt_.size(), name(), ": bad input port ", port);
    return inExt_[port];
}

TokenFifo&
Fabric::outPort(std::uint32_t port)
{
    TS_ASSERT(port < outExt_.size(), name(), ": bad output port ", port);
    return outExt_[port];
}

bool
Fabric::drained() const
{
    if (inFlight_ != 0)
        return false;
    for (const auto& f : inExt_) {
        if (!f.empty())
            return false;
    }
    for (const auto& f : outExt_) {
        if (!f.empty())
            return false;
    }
    return true;
}

void
Fabric::resetStreams()
{
    TS_ASSERT(drained(), name(), ": resetStreams with tokens in flight");
    for (auto& pe : pes_) {
        if (pe.node != nullptr && isAccumulator(pe.node->op))
            pe.acc = accIdentity(pe.node->op);
        pe.endedA = pe.endedB = false;
        pe.segDoneA = pe.segDoneB = false;
        pe.streamEndA = pe.streamEndB = false;
        pe.count = 0;
    }
}

void
Fabric::advanceRoutes()
{
    for (auto& r : routes_) {
        auto& regs = r.regs;
        const std::size_t last = regs.size() - 1;
        // Deliver the final register into the consumer operand FIFO.
        if (regs[last].has_value()) {
            auto& fifo = pes_[r.dstNode].opnd[r.slot];
            if (fifo.size() < cfg_.operandFifoDepth) {
                fifo.push_back(*regs[last]);
                regs[last].reset();
            }
        }
        // Shift earlier registers forward.
        for (std::size_t i = last; i > 0; --i) {
            if (!regs[i].has_value() && regs[i - 1].has_value()) {
                regs[i] = regs[i - 1];
                regs[i - 1].reset();
            }
        }
    }
}

bool
Fabric::pipeHasSpace(const PeState& pe) const
{
    const std::size_t depth = opInfo(pe.node->op).latency;
    return pe.pipe.size() < std::max<std::size_t>(depth, 1);
}

void
Fabric::pushResult(PeState& pe, Token t, Tick now)
{
    pe.pipe.push_back({t, now + opInfo(pe.node->op).latency});
    ++inFlight_;
}

Token
Fabric::takeOperand(PeState& pe, unsigned slot)
{
    const Token t = pe.opnd[slot].front();
    pe.opnd[slot].pop_front();
    --inFlight_;
    return t;
}

void
Fabric::outputStage(Tick now)
{
    for (auto& pe : pes_) {
        if (pe.pipe.empty())
            continue;
        const auto& [tok, readyAt] = pe.pipe.front();
        if (readyAt > now)
            continue;
        if (pe.outRoutes.empty()) {
            pe.pipe.pop_front(); // dead value: discard
            --inFlight_;
            continue;
        }
        bool allFree = true;
        for (std::uint32_t ri : pe.outRoutes) {
            if (routes_[ri].regs[0].has_value()) {
                allFree = false;
                break;
            }
        }
        if (!allFree)
            continue;
        for (std::uint32_t ri : pe.outRoutes)
            routes_[ri].regs[0] = tok;
        inFlight_ += pe.outRoutes.size() - 1; // fan-out copies
        pe.pipe.pop_front();
    }
}

void
Fabric::firePe(PeState& pe, Tick now)
{
    const Dfg::Node& n = *pe.node;

    if (n.op == Op::Input) {
        if (pe.ext->empty() || !pipeHasSpace(pe))
            return;
        Token t = pe.ext->pop();
        pushResult(pe, t, now);
        ++firings_;
        return;
    }

    if (n.op == Op::Output) {
        if (pe.opnd[0].empty() || pe.ext->full())
            return;
        pe.ext->push(takeOperand(pe, 0));
        ++firings_;
        return;
    }

    if (isElementwise(n.op)) {
        if (!pipeHasSpace(pe))
            return;
        for (unsigned s = 0; s < 3; ++s) {
            if (n.opnd[s].kind == Operand::Kind::Node &&
                pe.opnd[s].empty()) {
                return;
            }
        }
        Word w[3] = {0, 0, 0};
        std::uint8_t flags = 0;
        for (unsigned s = 0; s < 3; ++s) {
            if (n.opnd[s].kind == Operand::Kind::Node) {
                const Token t = takeOperand(pe, s);
                w[s] = t.value;
                flags |= t.flags;
            } else if (n.opnd[s].kind == Operand::Kind::Imm) {
                w[s] = n.opnd[s].imm;
            }
        }
        pushResult(pe,
                   Token{evalElementwise(n.op, w[0], w[1], w[2]), flags},
                   now);
        ++firings_;
        return;
    }

    if (isAccumulator(n.op)) {
        if (pe.opnd[0].empty() || !pipeHasSpace(pe))
            return;
        const Token t = takeOperand(pe, 0);
        pe.acc = evalAccStep(n.op, pe.acc, t.value);
        ++firings_;
        if (t.segEnd()) {
            pushResult(pe, Token{pe.acc, Token::demote(t.flags)}, now);
            pe.acc = accIdentity(n.op);
        }
        return;
    }

    if (n.op == Op::Merge2) {
        if (!pipeHasSpace(pe))
            return;
        const bool haveA = !pe.opnd[0].empty();
        const bool haveB = !pe.opnd[1].empty();
        if ((!pe.endedA && !haveA) || (!pe.endedB && !haveB))
            return;
        if (pe.endedA && pe.endedB)
            return; // stream fully merged; await reset
        unsigned side;
        if (pe.endedA) {
            side = 1;
        } else if (pe.endedB) {
            side = 0;
        } else {
            side = asInt(pe.opnd[0].front().value) <=
                           asInt(pe.opnd[1].front().value)
                       ? 0
                       : 1;
        }
        const Token t = takeOperand(pe, side);
        bool& ended = side == 0 ? pe.endedA : pe.endedB;
        const bool otherEnded = side == 0 ? pe.endedB : pe.endedA;
        std::uint8_t flags = 0;
        if (t.streamEnd()) {
            ended = true;
            if (otherEnded)
                flags = kSegEnd | kStreamEnd;
        }
        pushResult(pe, Token{t.value, flags}, now);
        ++firings_;
        return;
    }

    if (n.op == Op::IsectCount) {
        if (!pipeHasSpace(pe))
            return;
        if (pe.segDoneA && pe.segDoneB) {
            std::uint8_t flags = kSegEnd;
            if (pe.streamEndA && pe.streamEndB)
                flags |= kStreamEnd;
            pushResult(pe, Token{fromInt(pe.count), flags}, now);
            pe.count = 0;
            pe.segDoneA = pe.segDoneB = false;
            ++firings_;
            return;
        }
        const bool haveA = !pe.opnd[0].empty();
        const bool haveB = !pe.opnd[1].empty();
        auto consume = [&](unsigned side) {
            const Token t = takeOperand(pe, side);
            if (t.segEnd())
                (side == 0 ? pe.segDoneA : pe.segDoneB) = true;
            if (t.streamEnd())
                (side == 0 ? pe.streamEndA : pe.streamEndB) = true;
            return t;
        };
        if (!pe.segDoneA && !pe.segDoneB) {
            if (!haveA || !haveB)
                return;
            const std::int64_t va = asInt(pe.opnd[0].front().value);
            const std::int64_t vb = asInt(pe.opnd[1].front().value);
            if (va == vb) {
                ++pe.count;
                consume(0);
                consume(1);
            } else if (va < vb) {
                consume(0);
            } else {
                consume(1);
            }
        } else if (pe.segDoneA) {
            if (!haveB)
                return;
            consume(1); // drain the remainder of B's segment
        } else {
            if (!haveA)
                return;
            consume(0);
        }
        ++firings_;
        return;
    }

    panic(name(), ": unhandled op ", opName(n.op));
}

void
Fabric::fireStage(Tick now)
{
    for (auto& pe : pes_)
        firePe(pe, now);
}

bool
Fabric::pendingEmit() const
{
    for (const auto& pe : pes_) {
        if (pe.node != nullptr && pe.node->op == Op::IsectCount &&
            pe.segDoneA && pe.segDoneB) {
            return true;
        }
    }
    return false;
}

void
Fabric::tick(Tick now)
{
    if (current_ == nullptr) {
        sleepOnWake(); // configure() wakes us
        return;
    }
    if (!ready(now)) {
        // No tokens can arrive while configuration loads: the task
        // unit programs the stream engines only once ready() holds.
        sleepUntil(configReadyAt_);
        return;
    }
    if (drained() && !pendingEmit()) {
        // Woken by the read engines when they deliver input tokens.
        sleepOnWake();
        return;
    }
    ++activeCycles_;
    advanceRoutes();
    outputStage(now);
    fireStage(now);
}

bool
Fabric::busy() const
{
    return !drained() || pendingEmit();
}

void
Fabric::reportStats(StatSet& stats) const
{
    stats.set(name() + ".firings", static_cast<double>(firings_));
    stats.set(name() + ".reconfigs", static_cast<double>(reconfigs_));
    stats.set(name() + ".configCycles",
              static_cast<double>(configCycles_));
    stats.set(name() + ".activeCycles",
              static_cast<double>(activeCycles_));
}

} // namespace ts
