#include "noc/noc.hh"

#include <algorithm>
#include <limits>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace ts
{

namespace
{

enum Dir : unsigned
{
    East = 0,
    West,
    North,
    South,
    LocalPort,
    NumDirs
};

const char* const dirNames[NumDirs] = {"E", "W", "N", "S", "L"};

} // namespace

/**
 * One mesh router: five input ports (four neighbors + inject) and
 * five output ports (four neighbors + eject).  Each cycle every input
 * may forward its head packet if all required output links are free;
 * multicast packets split into per-direction copies here.
 */
class NocRouter : public Ticked
{
  public:
    NocRouter(Noc& noc, std::uint32_t id)
        : Ticked("noc.router" + std::to_string(id)), noc_(noc), id_(id)
    {
        in_.fill(nullptr);
        out_.fill(nullptr);
        linkFreeAt_.fill(0);

        // XY routing as destination-set masks: a packet's branch
        // toward direction d is its dstMask & dirMask_[d].
        dirMask_.fill(0);
        const std::uint32_t w = noc_.cfg_.width;
        const std::uint32_t cx = id_ % w, cy = id_ / w;
        for (std::uint32_t dst = 0; dst < noc_.numNodes(); ++dst) {
            const std::uint32_t dx = dst % w, dy = dst / w;
            unsigned d = LocalPort;
            if (dx > cx)
                d = East;
            else if (dx < cx)
                d = West;
            else if (dy > cy)
                d = North;
            else if (dy < cy)
                d = South;
            dirMask_[d] |= Packet::unicast(dst);
        }
    }

    void
    tick(Tick now) override
    {
        // The round-robin arbitration pointer is a pure function of
        // simulated time, so skipped (slept) cycles cannot perturb it.
        const unsigned rr = static_cast<unsigned>(now % NumDirs);
        for (unsigned i = 0; i < NumDirs; ++i) {
            const unsigned port = (rr + i) % NumDirs;
            if (in_[port] != nullptr && !in_[port]->empty())
                tryForward(*in_[port], now);
        }

        // Idle contract: sleep until some head can move.  Empty
        // inputs wake us by their commits; a head still serializing
        // onto this hop, or blocked on a link still busy with an
        // earlier packet, wakes us when that time comes; a head
        // blocked on a full output arms its space wake, which fires
        // when the downstream credit returns.
        Tick wakeAt = kNever;
        for (unsigned p = 0; p < NumDirs; ++p) {
            const Channel<Packet>* ch = in_[p];
            if (ch == nullptr || ch->empty())
                continue;
            const Tick t = movableAt(ch->front(), now);
            if (t == now)
                return;
            wakeAt = std::min(wakeAt, t);
        }
        if (wakeAt != kNever)
            sleepUntil(wakeAt);
        else
            sleepOnWake();
    }

    bool busy() const override { return false; }

    std::array<Channel<Packet>*, NumDirs> in_;
    std::array<Channel<Packet>*, NumDirs> out_;

  private:
    static constexpr Tick kNever = std::numeric_limits<Tick>::max();

    /**
     * The cycle head @p pkt may next move: @p now when nothing blocks
     * it, its tail's or a busy link's free cycle, or kNever after
     * arming the space wake of a full output.  Each condition stays
     * unmet until that time or wake, because only this router pushes
     * into its outputs, so waiting for the first one found is exact.
     */
    Tick
    movableAt(const Packet& pkt, Tick now)
    {
        if (pkt.notBefore > now)
            return pkt.notBefore;
        for (unsigned d = 0; d < NumDirs; ++d) {
            if ((pkt.dstMask & dirMask_[d]) == 0)
                continue;
            if (!out_[d]->canPush()) {
                out_[d]->armSpaceWake(this);
                return kNever;
            }
            if (d != LocalPort && linkFreeAt_[d] > now)
                return linkFreeAt_[d];
        }
        return now;
    }

    void
    tryForward(Channel<Packet>& in, Tick now)
    {
        const Packet& pkt = in.front();
        if (pkt.notBefore > now)
            return; // tail still serializing onto this hop

        // Split the destination set by outgoing direction.
        std::array<std::uint64_t, NumDirs> masks;
        for (unsigned d = 0; d < NumDirs; ++d)
            masks[d] = pkt.dstMask & dirMask_[d];

        // All branch outputs must be available (atomic split).
        unsigned lastBranch = 0;
        for (unsigned d = 0; d < NumDirs; ++d) {
            if (masks[d] == 0)
                continue;
            TS_ASSERT(out_[d] != nullptr,
                      name(), ": no link ", dirNames[d]);
            if (!out_[d]->canPush())
                return;
            if (d != LocalPort && linkFreeAt_[d] > now)
                return;
            lastBranch = d;
        }

        Packet head = in.pop();
        const std::uint32_t words = head.sizeWords;
        const bool mcast = head.mcast;
        const Tick injectedAt = head.injectedAt;
        const PktKind kind = head.kind;
        const Tick ser = std::max<Tick>(
            1, divCeil<std::uint32_t>(words, noc_.cfg_.linkWords));
        if (auto* t = tracer()) {
            unsigned branches = 0;
            for (unsigned d = 0; d < NumDirs; ++d)
                branches += masks[d] != 0 ? 1 : 0;
            if (branches > 1) {
                t->instant(t->track("noc.mcast"), "fanout",
                           trace::args("router", id_, "branches",
                                       branches, "words", words));
            }
        }
        for (unsigned d = 0; d < NumDirs; ++d) {
            if (masks[d] == 0)
                continue;
            // Tree splits copy the packet; the last branch takes it.
            Packet copy =
                d == lastBranch ? std::move(head) : Packet(head);
            copy.dstMask = masks[d];
            if (d != LocalPort)
                copy.notBefore = now + ser;
            const bool ok = out_[d]->push(std::move(copy));
            TS_ASSERT(ok);
            if (d == LocalPort) {
                ++noc_.delivered_;
                if (mcast)
                    ++noc_.mcastDeliveries_;
                const auto lat = static_cast<double>(now - injectedAt);
                noc_.latency_.sample(lat);
                noc_.kindLatency_[static_cast<unsigned>(kind)].sample(
                    lat);
                if (auto* t = tracer()) {
                    t->counter("noc.traffic", "delivered",
                               static_cast<double>(noc_.delivered_));
                }
            } else {
                linkFreeAt_[d] = now + ser;
                noc_.wordHops_ += words;
                if (mcast)
                    noc_.mcastWordHops_ += words;
            }
        }
    }

    Noc& noc_;
    std::uint32_t id_;
    std::array<Tick, NumDirs> linkFreeAt_;
    std::array<std::uint64_t, NumDirs> dirMask_;
};

Noc::Noc(Simulator& sim, const NocConfig& cfg) : sim_(sim), cfg_(cfg)
{
    const std::uint32_t n = numNodes();
    if (n == 0 || n > 64)
        fatal("mesh must have between 1 and 64 nodes, got ", n);

    kindLatency_.reserve(kNumPktKinds);
    for (unsigned k = 0; k < kNumPktKinds; ++k) {
        kindLatency_.emplace_back(
            sim.stats(), std::string("noc.pktLatency.") +
                             pktKindName(static_cast<PktKind>(k)));
    }

    routers_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        routers_.push_back(std::make_unique<NocRouter>(*this, i));
        sim.add(routers_.back().get());
    }

    // Injection and ejection channels connect a router to its own
    // node's component: freed slots come back in the same cycle.
    injectCh_.resize(n);
    ejectCh_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        auto& inj = sim.makeChannel<Packet>(
            "noc.inject" + std::to_string(i), cfg_.channelCapacity);
        auto& ej = sim.makeChannel<Packet>(
            "noc.eject" + std::to_string(i), 0 /* unbounded sink */);
        injectCh_[i] = &inj;
        ejectCh_[i] = &ej;
        routers_[i]->in_[LocalPort] = &inj;
        routers_[i]->out_[LocalPort] = &ej;
    }

    // Directed neighbor links with one-cycle credit return.
    const std::uint32_t w = cfg_.width, h = cfg_.height;
    auto link = [&](std::uint32_t from, std::uint32_t to, unsigned dirOut,
                    unsigned dirIn) {
        auto& ch = sim.makeChannel<Packet>(
            "noc.link" + std::to_string(from) + dirNames[dirOut],
            cfg_.channelCapacity);
        ch.setCreditReturn();
        routers_[from]->out_[dirOut] = &ch;
        routers_[to]->in_[dirIn] = &ch;
        linkCh_.push_back(&ch);
    };
    for (std::uint32_t y = 0; y < h; ++y) {
        for (std::uint32_t x = 0; x < w; ++x) {
            const std::uint32_t id = y * w + x;
            if (x + 1 < w)
                link(id, id + 1, East, West);
            if (x > 0)
                link(id, id - 1, West, East);
            if (y + 1 < h)
                link(id, id + w, North, South);
            if (y > 0)
                link(id, id - w, South, North);
        }
    }

    // Sleeping routers are woken by commits on their input channels.
    for (std::uint32_t i = 0; i < n; ++i) {
        for (unsigned p = 0; p < NumDirs; ++p) {
            if (routers_[i]->in_[p] != nullptr)
                routers_[i]->in_[p]->addObserver(routers_[i].get());
        }
    }
}

Noc::~Noc() = default;

bool
Noc::inject(Packet pkt)
{
    TS_ASSERT(pkt.src < numNodes(), "bad src node ", pkt.src);
    TS_ASSERT(pkt.dstMask != 0, "packet with empty destination set");
    // Test the full-mesh case first: shifting a 64-bit mask by 64 is
    // undefined behaviour.
    TS_ASSERT(numNodes() == 64 || (pkt.dstMask >> numNodes()) == 0,
              "destination outside mesh");
    const std::uint32_t src = pkt.src;
    const std::uint64_t dstMask = pkt.dstMask;
    const std::uint32_t words = pkt.sizeWords;
    const PktKind kind = pkt.kind;
    pkt.injectedAt = sim_.now();
    pkt.mcast = __builtin_popcountll(dstMask) > 1;
    const bool mcast = pkt.mcast;
    if (!injectCh_[pkt.src]->push(std::move(pkt)))
        return false;
    ++injected_;
    if (mcast) {
        ++mcastPackets_;
        // What this fanout would cost as one unicast per member:
        // the tree's actual word-hops accumulate as branches
        // traverse links, and the difference is the traffic the
        // multicast mechanism saved.
        std::uint64_t rest = dstMask;
        while (rest != 0) {
            const auto dst =
                static_cast<std::uint32_t>(__builtin_ctzll(rest));
            rest &= rest - 1;
            mcastUnicastEquivWordHops_ +=
                static_cast<std::uint64_t>(hopDistance(src, dst)) *
                words;
        }
    }
    if (auto* t = sim_.tracer()) {
        t->instant(t->track("noc.inject"), pktKindName(kind),
                   trace::args("src", src, "dstMask", dstMask, "words",
                               words));
    }
    return true;
}

Channel<Packet>&
Noc::eject(std::uint32_t node)
{
    TS_ASSERT(node < numNodes());
    return *ejectCh_[node];
}

std::uint32_t
Noc::hopDistance(std::uint32_t a, std::uint32_t b) const
{
    const std::uint32_t w = cfg_.width;
    const auto dx = static_cast<std::int64_t>(a % w) -
                    static_cast<std::int64_t>(b % w);
    const auto dy = static_cast<std::int64_t>(a / w) -
                    static_cast<std::int64_t>(b / w);
    return static_cast<std::uint32_t>(std::abs(dx) + std::abs(dy));
}

std::size_t
Noc::packetsInFlight() const
{
    std::size_t n = 0;
    for (const Channel<Packet>* c : injectCh_)
        n += c->size();
    for (const Channel<Packet>* c : linkCh_)
        n += c->size();
    return n;
}

void
Noc::reportStats(StatSet& stats) const
{
    stats.set("noc.wordHops", static_cast<double>(wordHops_));
    stats.set("noc.delivered", static_cast<double>(delivered_));
    stats.set("noc.injected", static_cast<double>(injected_));
    stats.set("noc.mcast.packets", static_cast<double>(mcastPackets_));
    stats.set("noc.mcast.deliveries",
              static_cast<double>(mcastDeliveries_));

    const auto hops = static_cast<double>(mcastWordHops_);
    const auto equivHops = static_cast<double>(mcastUnicastEquivWordHops_);
    stats.set("delta.attrib.multicast.wordHops", hops);
    stats.set("delta.attrib.multicast.unicastEquivWordHops", equivHops);
    stats.set("delta.attrib.multicast.wordHopsSaved",
              std::max(0.0, equivHops - hops));
    stats.set("delta.attrib.multicast.packets",
              static_cast<double>(mcastPackets_));
}

} // namespace ts
