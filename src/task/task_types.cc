#include "task/task_types.hh"

#include "sim/logging.hh"

namespace ts
{

TaskTypeId
TaskTypeRegistry::addDfgType(std::string name, std::unique_ptr<Dfg> dfg)
{
    TS_ASSERT(dfg != nullptr);
    auto t = std::make_unique<TaskType>();
    t->id = static_cast<TaskTypeId>(types_.size());
    t->name = std::move(name);
    t->dfg = dfg.get();
    t->mapped = mapper_.map(*dfg);
    dfgs_.push_back(std::move(dfg));
    types_.push_back(std::move(t));
    return types_.back()->id;
}

TaskTypeId
TaskTypeRegistry::addBuiltinType(std::string name, BuiltinBody body)
{
    TS_ASSERT(body.apply && body.cycles && body.outputWords,
              "builtin body must define apply/cycles/outputWords");
    auto t = std::make_unique<TaskType>();
    t->id = static_cast<TaskTypeId>(types_.size());
    t->name = std::move(name);
    t->builtin = std::move(body);
    types_.push_back(std::move(t));
    return types_.back()->id;
}

void
TaskTypeRegistry::setWorkFn(
    TaskTypeId id,
    std::function<double(const MemImage&, const TaskInstance&)> fn)
{
    types_.at(id)->workFn = std::move(fn);
}

double
TaskTypeRegistry::estimateWork(const MemImage& img,
                               const TaskInstance& inst) const
{
    const TaskType& t = type(inst.type);
    if (t.workFn)
        return t.workFn(img, inst);
    // Default: total input stream elements (the stream annotation
    // makes this a one-adder hardware estimate).
    double w = 0;
    for (const StreamDesc& d : inst.inputs)
        w += static_cast<double>(d.elementCount(img));
    return std::max(w, 1.0);
}

} // namespace ts
