/**
 * @file
 * The ahead-of-time spatial task-graph mapper.
 *
 * Given a fully-known task graph, estimated per-task work, and the
 * mesh geometry, produce a lane assignment that co-locates
 * producer/consumer chains (hop-distance-weighted affinity) while
 * keeping lane loads balanced.  The mapper tries a small deterministic
 * family of balance weights, evaluates each placement with a
 * communication-aware list schedule, scores it with the graph's own
 * `criticalPath` machinery over comm-inflated spans, and keeps the
 * best.  Everything is integer/ordered arithmetic over a fixed
 * candidate list: the same graph and geometry always yield the same
 * plan, which is what makes spatial runs bit-identical across host
 * parallelism and execution modes.
 */

#ifndef TS_SPATIAL_MAPPER_HH
#define TS_SPATIAL_MAPPER_HH

#include <vector>

#include "sim/types.hh"

namespace ts
{

class TaskGraph;
class MemImage;
class TaskTypeRegistry;
class Noc;

namespace spatial
{

/** The mapper's output: a static lane per task plus plan metadata. */
struct SpatialPlan
{
    /** Planned lane per task uid (-1: unmapped, dispatcher falls
     *  back to round-robin). */
    std::vector<std::int32_t> lane;

    /** Predicted makespan of the winning placement's list schedule. */
    Tick predictedMakespan = 0;

    /** Critical path of the winning placement's comm-inflated spans
     *  (the cost-model side of the score). */
    Tick predictedCritPath = 0;

    /** Balance weight of the winning candidate. */
    double balanceWeight = 0.0;

    /** Placement candidates evaluated. */
    std::uint32_t candidatesTried = 0;

    /** Graph edges whose producer output can stream lane-to-lane. */
    std::uint64_t forwardableEdges = 0;

    /** Words those edges would move (per-edge landing-buffer sizing
     *  input; the dispatcher re-derives exact sizes per port). */
    std::uint64_t forwardableWords = 0;
};

/**
 * Map @p g onto the lanes whose NoC nodes are @p laneNodes.
 * @p linkWords is the mesh link width (words/cycle), used to convert
 * cross-lane edge words into modeled transfer cycles.  Deterministic
 * for fixed inputs.
 */
SpatialPlan mapTaskGraph(const TaskGraph& g, const MemImage& img,
                         const TaskTypeRegistry& reg, const Noc& noc,
                         const std::vector<std::uint32_t>& laneNodes,
                         std::uint32_t linkWords);

} // namespace spatial
} // namespace ts

#endif // TS_SPATIAL_MAPPER_HH
