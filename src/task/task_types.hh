/**
 * @file
 * Task types and task instances: TaskStream's first-class hardware
 * task primitives.
 *
 * A TaskType couples a compute body (a DFG mapped onto the fabric, or
 * a builtin coarse-grained kernel) with a stream signature.  A
 * TaskInstance binds concrete stream descriptors.  Because arguments
 * are *streams*, the hardware can (1) estimate the work an instance
 * represents — the annotation behind work-aware load balancing — and
 * (2) recognize producer/consumer and shared-read structure.
 */

#ifndef TS_TASK_TASK_TYPES_HH
#define TS_TASK_TASK_TYPES_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cgra/fabric.hh"
#include "cgra/mapping.hh"
#include "mem/mem_image.hh"
#include "stream/stream_desc.hh"

namespace ts
{

using TaskTypeId = std::uint16_t;

constexpr std::uint32_t kNoGroup = ~std::uint32_t(0);

class TaskInstance;
struct SpawnSet;

/** A coarse-grained builtin kernel body (e.g. a tile factorization)
 *  used where a fine-grained dataflow body would add nothing. */
struct BuiltinBody
{
    /** Functional effect, applied when the compute phase begins. */
    std::function<void(MemImage&, const TaskInstance&)> apply;

    /** Fabric-occupancy model in cycles. */
    std::function<std::uint64_t(const MemImage&, const TaskInstance&)>
        cycles;

    /** Words of output traffic to model after compute. */
    std::function<std::uint64_t(const MemImage&, const TaskInstance&)>
        outputWords;

    /**
     * Dynamic-spawn hook (optional).  Invoked by the task unit right
     * after `apply`; tasks and edges appended to the SpawnSet are
     * shipped to the dispatcher in one TaskSpawn NoC message and join
     * the live dependence graph (see task_graph.hh / DESIGN.md §7).
     */
    std::function<void(MemImage&, const TaskInstance&, SpawnSet&)> spawn;
};

/** A task type: the unit of fabric configuration. */
struct TaskType
{
    TaskTypeId id = 0;
    std::string name;

    /** Dataflow body (null for builtin types). */
    const Dfg* dfg = nullptr;

    /** Placement/routing of the body, shared by all lanes. */
    MappedDfg mapped;

    /** Builtin body (set iff dfg == nullptr). */
    std::optional<BuiltinBody> builtin;

    /**
     * Work estimate for an instance, in abstract work units.  The
     * default sums input-stream element counts; types may override
     * (e.g. cubic tile kernels).
     */
    std::function<double(const MemImage&, const TaskInstance&)> workFn;

    bool isBuiltin() const { return builtin.has_value(); }
};

/** A concrete runnable task. */
class TaskInstance
{
  public:
    TaskId uid = 0;
    TaskTypeId type = 0;

    /** One input stream per DFG input port (builtin: staging reads). */
    std::vector<StreamDesc> inputs;

    /** One output destination per DFG output port. */
    std::vector<WriteDesc> outputs;

    /** Shared-read annotation: group id per input port (or kNoGroup). */
    std::vector<std::uint32_t> inputGroup;

    /** Group id of this task's inputs (kNoGroup when none). */
    std::uint32_t
    anyGroup() const
    {
        for (std::uint32_t g : inputGroup) {
            if (g != kNoGroup)
                return g;
        }
        return kNoGroup;
    }
};

/**
 * Registry of task types.  Owns the DFGs and their fabric mappings;
 * every lane shares the mapped configurations (matching hardware,
 * where the bitstream is broadcast).
 */
class TaskTypeRegistry
{
  public:
    explicit TaskTypeRegistry(const FabricGeometry& geom)
        : mapper_(geom)
    {}

    /** Register a dataflow task type; the DFG is mapped immediately. */
    TaskTypeId addDfgType(std::string name, std::unique_ptr<Dfg> dfg);

    /** Register a builtin (coarse-grained) task type. */
    TaskTypeId addBuiltinType(std::string name, BuiltinBody body);

    /** Override the work estimator of a type. */
    void setWorkFn(
        TaskTypeId id,
        std::function<double(const MemImage&, const TaskInstance&)> fn);

    const TaskType& type(TaskTypeId id) const { return *types_.at(id); }
    std::size_t numTypes() const { return types_.size(); }

    /** Estimate the work of an instance. */
    double estimateWork(const MemImage& img,
                        const TaskInstance& inst) const;

  private:
    Mapper mapper_;
    std::vector<std::unique_ptr<TaskType>> types_;
    std::vector<std::unique_ptr<Dfg>> dfgs_;
};

} // namespace ts

#endif // TS_TASK_TASK_TYPES_HH
