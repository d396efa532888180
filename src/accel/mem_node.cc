#include "accel/mem_node.hh"

#include "sim/logging.hh"

namespace ts
{

MemNode::MemNode(Simulator& sim, Noc& noc, std::uint32_t selfNode,
                 const MainMemoryConfig& cfg)
    : Ticked("memnode"), noc_(noc), selfNode_(selfNode)
{
    reqCh_ = &sim.makeChannel<MemReq>("memnode.req", cfg.queueCapacity);
    respCh_ = &sim.makeChannel<MemResp>("memnode.resp", 16);
    mem_ = std::make_unique<MainMemory>(sim, cfg, *reqCh_, *respCh_);
    sim.add(this);
    sim.add(mem_.get());

    // Sleep between bursts and while blocked; woken by NoC arrivals,
    // DRAM responses and the space wakes armed in tick().
    noc_.eject(selfNode_).addObserver(this);
    respCh_->addObserver(this);
}

void
MemNode::tick(Tick)
{
    // Arrivals -> DRAM request channel.
    auto& inbox = noc_.eject(selfNode_);
    while (!inbox.empty() && reqCh_->canPush()) {
        Packet pkt = inbox.pop();
        TS_ASSERT(pkt.kind == PktKind::MemReq,
                  "memnode received non-memory packet");
        const bool ok =
            reqCh_->push(std::get<MemReq>(pkt.payload));
        TS_ASSERT(ok);
    }

    // Serviced lines -> response packets.
    while (!respCh_->empty()) {
        const MemResp& resp = respCh_->front();
        Packet pkt;
        pkt.src = selfNode_;
        pkt.dstMask = resp.multicastMask != 0
                          ? resp.multicastMask
                          : Packet::unicast(resp.srcNode);
        pkt.kind = PktKind::MemResp;
        pkt.sizeWords = lineWords;
        pkt.payload = resp;
        if (!noc_.inject(std::move(pkt)))
            break;
        respCh_->pop();
    }

    // Wait for the next channel commit; a backlog on either side
    // also waits for the slot it is blocked on (a full request
    // channel, a full injection queue).
    if (!inbox.empty())
        reqCh_->armSpaceWake(this);
    if (!respCh_->empty())
        noc_.armInjectSpaceWake(selfNode_, this);
    sleepOnWake();
}

bool
MemNode::busy() const
{
    return false; // channels and MainMemory carry all pending state
}

void
MemNode::reportStats(StatSet& stats) const
{
    mem_->reportStats(stats);
}

} // namespace ts
