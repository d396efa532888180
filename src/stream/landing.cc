#include "stream/landing.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ts
{

std::string
landingName(std::uint64_t id)
{
    static const char* const kNames[] = {"?", "pipe", "multicast",
                                         "spatial"};
    return std::string(kNames[id >> 62]) + " " +
           std::to_string(landingKey(id));
}

Packet
forwardPacket(std::uint32_t src, const ForwardChunk& c)
{
    Packet pkt;
    pkt.src = src;
    pkt.dstMask = c.to.dstMask;
    pkt.sizeWords = c.words + 1;
    const std::uint64_t key = landingKey(c.to.landing);
    if (landingKind(c.to.landing) == LandingKind::Pipe) {
        TS_ASSERT(c.toks.size() == c.words, "pipe chunk of ", c.words,
                  " words carries ", c.toks.size(), " tokens");
        pkt.kind = PktKind::PipeChunk;
        pkt.payload = PipeChunkMsg{key, c.toks};
    } else {
        pkt.kind = PktKind::SpatialChunk;
        pkt.payload = SpatialChunkMsg{key, c.words, c.done};
    }
    return pkt;
}

void
Landing::pipeChunk(std::uint64_t pipeId, const std::vector<Token>& toks)
{
    Entry& e = entries_[landingId(LandingKind::Pipe, pipeId)];
    for (const Token& t : toks)
        e.toks.push_back(t);
    e.arrived += toks.size();
    pipeTokens_ += toks.size();
    pipeBuffered_ += toks.size();
    pipeMaxOcc_ = std::max(pipeMaxOcc_, pipeBuffered_);
}

void
Landing::spatialChunk(std::uint64_t group, std::uint32_t words, bool done)
{
    Entry& e = entries_[landingId(LandingKind::Spatial, group)];
    e.arrived += words;
    if (done)
        ++e.marks;
    ++spatialChunks_;
    spatialWords_ += words;
}

void
Landing::setup(const GroupSetupMsg& msg)
{
    Entry& e = entries_[landingId(LandingKind::Multicast, msg.group)];
    TS_ASSERT(!e.copy, "group ", msg.group, " set up twice");
    e.copy = msg;
    for (Addr line : e.early)
        land(e, line);
    e.early.clear();
}

void
Landing::fill(std::uint32_t group, Addr lineAddr)
{
    Entry& e = entries_[landingId(LandingKind::Multicast, group)];
    if (e.copy)
        land(e, lineAddr);
    else
        e.early.push_back(lineAddr);
}

void
Landing::land(Entry& e, Addr lineAddr)
{
    const GroupSetupMsg& g = *e.copy;
    for (unsigned w = 0; w < lineWords; ++w) {
        const Addr a = lineAddr + w * wordBytes;
        if (a < g.rangeBase || a >= g.rangeBase + g.words * wordBytes)
            continue;
        spm_.write(g.landingOffset + (a - g.rangeBase) / wordBytes,
                   img_.readWord(a));
    }
    ++e.arrived;
    ++e.marks;
    ++fillLines_;
}

bool
Landing::hasToken(std::uint64_t pipeId) const
{
    const auto it = entries_.find(landingId(LandingKind::Pipe, pipeId));
    return it != entries_.end() && !it->second.toks.empty();
}

Token
Landing::popToken(std::uint64_t pipeId)
{
    const auto it = entries_.find(landingId(LandingKind::Pipe, pipeId));
    TS_ASSERT(it != entries_.end() && !it->second.toks.empty(),
              "pop on empty pipe ", pipeId);
    --pipeBuffered_;
    return it->second.toks.pop();
}

bool
Landing::ready(const LandingGate& gate) const
{
    if (gate.need == 0)
        return true;
    const auto it = entries_.find(gate.id);
    return it != entries_.end() && it->second.marks >= gate.need;
}

void
Landing::release(std::uint64_t id)
{
    const auto it = entries_.find(id);
    if (it == entries_.end())
        return;
    TS_ASSERT(it->second.toks.empty(), "releasing ", landingName(id),
              " with data buffered");
    if (landingKind(id) == LandingKind::Spatial)
        groupPeakWords_.sample(static_cast<double>(it->second.arrived));
    entries_.erase(it);
}

std::optional<std::uint64_t>
Landing::firstLive() const
{
    for (const auto& [id, e] : entries_) {
        if (landingKind(id) != LandingKind::Multicast)
            return id;
    }
    return std::nullopt;
}

void
Landing::reportStats(StatSet& stats, const std::string& prefix) const
{
    stats.set(prefix + ".pipeTokens", static_cast<double>(pipeTokens_));
    stats.set(prefix + ".pipeMaxOccupancy",
              static_cast<double>(pipeMaxOcc_));
    stats.set(prefix + ".fillLinesLanded",
              static_cast<double>(fillLines_));
    if (spatialChunks_ > 0) {
        stats.set(prefix + ".spatialChunksRecv",
                  static_cast<double>(spatialChunks_));
        stats.set(prefix + ".spatialWordsRecv",
                  static_cast<double>(spatialWords_));
    }
}

} // namespace ts
