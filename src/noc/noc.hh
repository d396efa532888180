/**
 * @file
 * A 2D-mesh packet network with XY dimension-order routing,
 * credit-style back-pressure (bounded inter-router channels), link
 * serialization, and tree multicast.
 *
 * Topology: `width x height` routers, node id = y * width + x.  Each
 * router has one local injection port and one local ejection port.
 * Ejection channels are unbounded (ideal sinks) so that protocol
 * deadlock cannot originate in the network itself; occupancy is
 * tracked and reported.
 */

#ifndef TS_NOC_NOC_HH
#define TS_NOC_NOC_HH

#include <array>
#include <memory>
#include <vector>

#include "noc/packet.hh"
#include "sim/channel.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace ts
{

/** Mesh parameters. */
struct NocConfig
{
    std::uint32_t width = 4;
    std::uint32_t height = 4;
    std::size_t channelCapacity = 4; ///< packets per inter-router link
    std::uint32_t linkWords = 2;     ///< words a link moves per cycle
};

/** The mesh network: owns its routers and channels. */
class Noc
{
  public:
    /**
     * @param nodeParts optional per-node partition ids (size
     *        numNodes()): router @c i and its inject/eject channels
     *        are declared in partition nodeParts[i], making every
     *        inter-router link of differently-partitioned nodes a
     *        boundary channel (credit back-pressure).
     *        Empty (default) keeps the whole mesh in the simulator's
     *        current registration partition — single-partition, as
     *        before.
     */
    Noc(Simulator& sim, const NocConfig& cfg,
        const std::vector<std::uint32_t>& nodeParts = {});
    ~Noc();

    Noc(const Noc&) = delete;
    Noc& operator=(const Noc&) = delete;

    /** Number of nodes in the mesh. */
    std::uint32_t numNodes() const { return cfg_.width * cfg_.height; }

    /**
     * Inject a packet at its source node.
     * @return false when the injection buffer is full (retry later).
     */
    bool inject(Packet pkt);

    /** The ejection channel of a node; consumers pop from it. */
    Channel<Packet>& eject(std::uint32_t node);

    /** Total word-hops traversed (traffic metric for Fig-5). */
    std::uint64_t wordHops() const { return wordHops_; }

    /** Total packets delivered to local ports. */
    std::uint64_t delivered() const { return delivered_; }

    /** Total packets accepted by inject(). */
    std::uint64_t injected() const { return injected_; }

    /** Word-hops traversed by multicast (fanout > 1) packets. */
    std::uint64_t mcastWordHops() const { return mcastWordHops_; }

    /** Word-hops the same multicast traffic would have cost as one
     *  unicast packet per destination (sum of Manhattan distances
     *  times payload size, accumulated at injection). */
    std::uint64_t
    mcastUnicastEquivWordHops() const
    {
        return mcastUnicastEquivWordHops_;
    }

    /** Multicast packets injected / local deliveries they produced. */
    std::uint64_t mcastPackets() const { return mcastPackets_; }
    std::uint64_t mcastDeliveries() const { return mcastDeliveries_; }

    /** Report traffic statistics. */
    void reportStats(StatSet& stats) const;

    /** Manhattan distance between two nodes (for tests). */
    std::uint32_t hopDistance(std::uint32_t a, std::uint32_t b) const;

    /**
     * Packets currently buffered in the network: visible occupancy
     * of every injection and inter-router link channel (timeline
     * probe).  Ejection channels are excluded — a packet parked
     * there has been delivered.  Counting occupancy directly stays
     * correct under multicast, where one injected packet produces
     * several deliveries.
     */
    std::size_t packetsInFlight() const;

  private:
    friend class NocRouter;

    Simulator& sim_;
    NocConfig cfg_;
    std::vector<std::unique_ptr<class NocRouter>> routers_;
    std::vector<Channel<Packet>*> injectCh_;
    std::vector<Channel<Packet>*> ejectCh_;
    std::vector<Channel<Packet>*> linkCh_;

    /** Traffic counters: injection-side ones bumped by inject(),
     *  forwarding-side ones by the routers. */
    std::uint64_t injected_ = 0;
    std::uint64_t mcastPackets_ = 0;
    std::uint64_t mcastUnicastEquivWordHops_ = 0;
    std::uint64_t wordHops_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t mcastWordHops_ = 0;
    std::uint64_t mcastDeliveries_ = 0;

    /** Delivery latency, overall and per packet kind. */
    StatProbe latency_{"noc.pktLatency"};
    std::vector<StatProbe> kindLatency_;
};

} // namespace ts

#endif // TS_NOC_NOC_HH
