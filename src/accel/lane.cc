#include "accel/lane.hh"

#include <algorithm>

#include "mem/request.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace ts
{

Lane::Lane(Simulator& sim, Noc& noc, MemImage& img,
           const TaskTypeRegistry& registry, std::uint32_t laneIndex,
           std::uint32_t selfNode, std::uint32_t dispatcherNode,
           std::uint32_t memNode, const LaneConfig& cfg,
           const std::vector<std::uint32_t>& laneNodes,
           StealPolicy steal)
    : Ticked("lane" + std::to_string(laneIndex)), noc_(noc),
      selfNode_(selfNode), memNode_(memNode), cfg_(cfg)
{
    const std::string prefix = name();

    mshrs_.resize(cfg.maxOutstandingLines);
    for (std::uint32_t i = cfg.maxOutstandingLines; i > 0; --i)
        freeMshrs_.push_back(i - 1);

    fabric_ = std::make_unique<Fabric>(prefix + ".fabric", cfg.fabric);
    spm_ = std::make_unique<Scratchpad>(prefix + ".spm", cfg.spm);
    landing_ = std::make_unique<Landing>(img, *spm_, sim.stats());

    for (std::uint32_t i = 0; i < cfg.numReadEngines; ++i) {
        readEngines_.push_back(std::make_unique<ReadEngine>(
            prefix + ".rd" + std::to_string(i), img, spm_.get(), this,
            landing_.get(), cfg.read));
    }
    for (std::uint32_t i = 0; i < cfg.numWriteEngines; ++i) {
        writeEngines_.push_back(std::make_unique<WriteEngine>(
            prefix + ".wr" + std::to_string(i), img, spm_.get(), this,
            this, cfg.write));
    }

    TaskUnitPorts ports;
    ports.fabric = fabric_.get();
    for (auto& re : readEngines_)
        ports.readEngines.push_back(re.get());
    for (auto& we : writeEngines_)
        ports.writeEngines.push_back(we.get());
    ports.landing = landing_.get();
    ports.memPort = this;
    ports.image = &img;
    ports.stats = &sim.stats();
    ports.send = [this](Packet pkt) { return noc_.inject(pkt); };
    ports.selfNode = selfNode;
    ports.dispatcherNode = dispatcherNode;
    ports.laneIndex = laneIndex;
    ports.steal = steal;
    if (steal != StealPolicy::None) {
        // Locality-aware victim order: nearest peers first by NoC hop
        // distance, lane index breaking ties (deterministic).
        for (std::uint32_t j = 0;
             j < static_cast<std::uint32_t>(laneNodes.size()); ++j) {
            if (j != laneIndex)
                ports.victims.emplace_back(j, laneNodes[j]);
        }
        std::stable_sort(
            ports.victims.begin(), ports.victims.end(),
            [&](const auto& a, const auto& b) {
                return noc.hopDistance(selfNode, a.second) <
                       noc.hopDistance(selfNode, b.second);
            });
    }
    taskUnit_ = std::make_unique<TaskUnit>(prefix + ".tu", registry,
                                           std::move(ports));

    // Registration order fixes intra-cycle evaluation order: the
    // adapter (this) demuxes arrivals first, then the task unit makes
    // control decisions, then the engines and fabric move data.
    sim.add(this);
    sim.add(taskUnit_.get());
    sim.add(spm_.get());
    for (auto& re : readEngines_)
        sim.add(re.get());
    for (auto& we : writeEngines_)
        sim.add(we.get());
    sim.add(fabric_.get());

    // The adapter sleeps on an empty ejection queue; arrivals wake it.
    noc_.eject(selfNode_).addObserver(this);
}

bool
Lane::requestLine(Addr lineAddr, LineSink& sink, std::uint64_t cookie)
{
    if (freeMshrs_.empty())
        return false;
    const std::uint32_t slot = freeMshrs_.back();
    MemReq req;
    req.lineAddr = lineAddr;
    req.write = false;
    req.srcNode = selfNode_;
    req.tag = slot;

    Packet pkt;
    pkt.src = selfNode_;
    pkt.dstMask = Packet::unicast(memNode_);
    pkt.kind = PktKind::MemReq;
    pkt.sizeWords = 1;
    pkt.payload = req;
    if (!noc_.inject(std::move(pkt)))
        return false;
    freeMshrs_.pop_back();
    mshrs_[slot] = Mshr{&sink, cookie};
    ++lineReads_;
    if (auto* t = tracer()) {
        t->counter((name() + ".mshr").c_str(), "inflight",
                   static_cast<double>(mshrsInUse()));
    }
    return true;
}

bool
Lane::writeLine(Addr lineAddr)
{
    MemReq req;
    req.lineAddr = lineAddr;
    req.write = true;
    req.srcNode = selfNode_;

    Packet pkt;
    pkt.src = selfNode_;
    pkt.dstMask = Packet::unicast(memNode_);
    pkt.kind = PktKind::MemReq;
    pkt.sizeWords = 1 + lineWords; // command + line payload
    pkt.payload = req;
    if (!noc_.inject(std::move(pkt)))
        return false;
    ++lineWrites_;
    return true;
}

void
Lane::armSpaceWake(Ticked* t)
{
    noc_.armInjectSpaceWake(selfNode_, t);
    if (std::find(mshrWaiters_.begin(), mshrWaiters_.end(), t) ==
        mshrWaiters_.end())
        mshrWaiters_.push_back(t);
}

bool
Lane::sendForward(const ForwardChunk& c)
{
    Packet pkt = forwardPacket(selfNode_, c);
    const bool pipe = pkt.kind == PktKind::PipeChunk;
    if (!noc_.inject(std::move(pkt)))
        return false;
    if (pipe)
        ++chunksSent_;
    return true;
}

void
Lane::tick(Tick)
{
    auto& inbox = noc_.eject(selfNode_);
    constexpr std::uint32_t kEjectsPerCycle = 8;
    std::uint32_t budget = kEjectsPerCycle;
    while (budget > 0 && !inbox.empty()) {
        Packet pkt = inbox.pop();
        --budget;
        switch (pkt.kind) {
          case PktKind::MemResp: {
            const MemResp& resp = std::get<MemResp>(pkt.payload);
            if (isSharedFillTag(resp.tag)) {
                landing_->fill(sharedFillGroup(resp.tag),
                               resp.lineAddr);
                break;
            }
            TS_ASSERT(resp.tag < mshrs_.size() &&
                          mshrs_[resp.tag].sink != nullptr,
                      name(), ": response for unknown tag ", resp.tag);
            const Mshr m = mshrs_[resp.tag];
            mshrs_[resp.tag].sink = nullptr;
            freeMshrs_.push_back(static_cast<std::uint32_t>(resp.tag));
            // The units armed on a refused request tick after us, so
            // they see the free slot this cycle.
            for (Ticked* t : mshrWaiters_)
                t->requestWake();
            mshrWaiters_.clear();
            if (auto* t = tracer()) {
                t->counter((name() + ".mshr").c_str(), "inflight",
                           static_cast<double>(mshrsInUse()));
            }
            m.sink->lineArrived(resp.lineAddr, m.cookie);
            break;
          }
          case PktKind::TaskDispatch:
            taskUnit_->deliver(std::move(
                *std::get<Boxed<DispatchMsg>>(pkt.payload)));
            break;
          case PktKind::SharedFill:
            landing_->setup(std::get<GroupSetupMsg>(pkt.payload));
            break;
          case PktKind::PipeChunk: {
            const auto& msg = std::get<PipeChunkMsg>(pkt.payload);
            landing_->pipeChunk(msg.pipeId, msg.toks);
            break;
          }
          case PktKind::SpatialChunk: {
            const auto& msg = std::get<SpatialChunkMsg>(pkt.payload);
            landing_->spatialChunk(msg.group, msg.words, msg.done);
            spatialHopWords_ +=
                static_cast<std::uint64_t>(
                    noc_.hopDistance(pkt.src, selfNode_)) *
                pkt.sizeWords;
            break;
          }
          case PktKind::StealRequest:
            taskUnit_->onStealRequest(
                std::get<StealRequestMsg>(pkt.payload));
            break;
          case PktKind::StealGrant:
            taskUnit_->onStealGrant(std::move(
                *std::get<Boxed<StealGrantMsg>>(pkt.payload)));
            break;
          case PktKind::StealDeny:
            taskUnit_->onStealDeny(std::get<StealDenyMsg>(pkt.payload));
            break;
          default:
            panic(name(), ": unexpected packet kind");
        }
    }
    // Every packet may change what the task unit reads: MSHR fills
    // and pipe chunks flip engine probes, landings clear WaitFill
    // gates.  It ticks after us, so it sees them this cycle.
    if (budget < kEjectsPerCycle)
        taskUnit_->requestWake();
    // Nothing to demux until the ejection channel commits again; a
    // leftover backlog (budget exhausted) keeps the adapter ticking.
    if (inbox.empty())
        sleepOnWake();
}

std::uint64_t
Lane::spatialLinesSuppressed() const
{
    std::uint64_t n = taskUnit_->spatialLinesSuppressed();
    for (const auto& we : writeEngines_)
        n += we->linesSuppressed();
    return n;
}

std::uint64_t
Lane::spatialLandingLines() const
{
    std::uint64_t n = 0;
    for (const auto& re : readEngines_)
        n += re->landingLinesAvoided();
    return n;
}

std::uint64_t
Lane::spatialChunksSent() const
{
    std::uint64_t n = taskUnit_->spatialChunksSent();
    for (const auto& we : writeEngines_)
        n += we->spatialChunksSent();
    return n;
}

bool
Lane::busy() const
{
    // In-flight memory requests are visible through the memory model
    // and NoC channels; the adapter itself holds no latent work.
    return false;
}

void
Lane::reportStats(StatSet& stats) const
{
    stats.set(name() + ".lineReads", static_cast<double>(lineReads_));
    stats.set(name() + ".lineWrites", static_cast<double>(lineWrites_));
    stats.set(name() + ".chunksSent", static_cast<double>(chunksSent_));
    landing_->reportStats(stats, name());
}

} // namespace ts
