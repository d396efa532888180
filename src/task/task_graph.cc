#include "task/task_graph.hh"

#include <deque>

#include "sim/logging.hh"

namespace ts
{

TaskId
TaskGraph::addTask(TaskTypeId type, std::vector<StreamDesc> inputs,
                   std::vector<WriteDesc> outputs)
{
    TaskInstance inst;
    inst.uid = static_cast<TaskId>(tasks_.size());
    inst.type = type;
    inst.inputs = std::move(inputs);
    inst.outputs = std::move(outputs);
    inst.inputGroup.assign(inst.inputs.size(), kNoGroup);
    tasks_.push_back(std::move(inst));
    outEdges_.emplace_back();
    return tasks_.back().uid;
}

bool
TaskGraph::reaches(TaskId from, TaskId to) const
{
    if (from == to)
        return true;
    std::vector<bool> seen(tasks_.size(), false);
    std::vector<TaskId> stack{from};
    seen[from] = true;
    while (!stack.empty()) {
        const TaskId at = stack.back();
        stack.pop_back();
        for (const std::uint32_t ei : outEdges_[at]) {
            const TaskId next = edges_[ei].consumer;
            if (next == to)
                return true;
            if (!seen[next]) {
                seen[next] = true;
                stack.push_back(next);
            }
        }
    }
    return false;
}

void
TaskGraph::checkAcyclicEdge(TaskId producer, TaskId consumer) const
{
    TS_ASSERT(producer != consumer, "self-dependence on task ",
              producer, " rejected");
    // While every edge so far follows creation order, ascending uid
    // is a topological order and a forward edge cannot close a cycle.
    if (creationOrdered_ && producer < consumer)
        return;
    TS_ASSERT(!reaches(consumer, producer),
              "dependence ", producer, " -> ", consumer,
              " would close a cycle");
}

void
TaskGraph::addEdge(const DepEdge& e)
{
    TS_ASSERT(e.producer < tasks_.size());
    TS_ASSERT(e.consumer < tasks_.size());
    checkAcyclicEdge(e.producer, e.consumer);
    edges_.push_back(e);
    outEdges_[e.producer].push_back(
        static_cast<std::uint32_t>(edges_.size() - 1));
    if (e.producer >= e.consumer)
        creationOrdered_ = false;
}

void
TaskGraph::addBarrier(TaskId producer, TaskId consumer)
{
    addEdge(DepEdge{producer, consumer, DepKind::Barrier, 0, 0});
}

void
TaskGraph::addPipeline(TaskId producer, std::uint8_t producerPort,
                       TaskId consumer, std::uint8_t consumerPort)
{
    TS_ASSERT(producerPort < task(producer).outputs.size());
    TS_ASSERT(consumerPort < task(consumer).inputs.size());
    addEdge(DepEdge{producer, consumer, DepKind::Pipeline, producerPort,
                    consumerPort});
}

void
TaskGraph::transferSuccessors(TaskId from, TaskId to)
{
    TS_ASSERT(from < tasks_.size());
    TS_ASSERT(to < tasks_.size());
    TS_ASSERT(from != to, "cannot transfer successors to self");
    for (const std::uint32_t ei : outEdges_[from]) {
        const DepEdge& e = edges_[ei];
        TS_ASSERT(e.consumer != to,
                  "successor transfer ", from, " -> ", to,
                  " would make task ", to, " depend on itself");
        checkAcyclicEdge(to, e.consumer);
    }
    for (const std::uint32_t ei : outEdges_[from]) {
        DepEdge& e = edges_[ei];
        e.rehang(to);
        outEdges_[to].push_back(ei);
        if (to >= e.consumer)
            creationOrdered_ = false;
    }
    outEdges_[from].clear();
}

std::uint32_t
TaskGraph::addSharedGroup(Addr rangeBase, std::uint64_t words)
{
    TS_ASSERT(rangeBase % wordBytes == 0,
              "shared ranges must be word-aligned");
    TS_ASSERT(words > 0);
    SharedGroup g;
    g.id = static_cast<std::uint32_t>(groups_.size());
    g.rangeBase = rangeBase;
    g.words = words;
    groups_.push_back(g);
    return groups_.back().id;
}

void
TaskGraph::setSharedInput(TaskId task, std::uint32_t port,
                          std::uint32_t group)
{
    TS_ASSERT(task < tasks_.size());
    TS_ASSERT(group < groups_.size());
    TaskInstance& inst = tasks_[task];
    TS_ASSERT(port < inst.inputs.size());
    const SharedGroup& g = groups_[group];
    const StreamDesc& d = inst.inputs[port];
    TS_ASSERT(d.dataSpace == Space::Dram,
              "shared inputs must start as DRAM streams");
    TS_ASSERT(d.dataBase >= g.rangeBase &&
                  d.dataBase < g.rangeBase + g.words * wordBytes,
              "shared input base outside the group range");
    inst.inputGroup[port] = group;
    groups_[group].members.push_back(task);
}

std::vector<TaskId>
TaskGraph::topoOrder() const
{
    std::vector<std::uint32_t> indeg(tasks_.size(), 0);
    for (const DepEdge& e : edges_)
        ++indeg[e.consumer];

    // Kahn with a FIFO frontier: uids enter in ascending order and
    // successors are released in edge-creation order, so the result
    // is a deterministic function of the graph alone.
    std::deque<TaskId> frontier;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        if (indeg[i] == 0)
            frontier.push_back(static_cast<TaskId>(i));
    }

    std::vector<TaskId> order;
    order.reserve(tasks_.size());
    while (!frontier.empty()) {
        const TaskId at = frontier.front();
        frontier.pop_front();
        order.push_back(at);
        for (const std::uint32_t ei : outEdges_[at]) {
            const TaskId next = edges_[ei].consumer;
            if (--indeg[next] == 0)
                frontier.push_back(next);
        }
    }
    TS_ASSERT(order.size() == tasks_.size(),
              "task graph has a cycle (", tasks_.size() - order.size(),
              " tasks unreachable from the acyclic frontier)");
    return order;
}

void
TaskGraph::validate() const
{
    for (const DepEdge& e : edges_) {
        TS_ASSERT(e.producer < tasks_.size() &&
                  e.consumer < tasks_.size());
        TS_ASSERT(e.producer != e.consumer);
    }
    for (const SharedGroup& g : groups_)
        TS_ASSERT(!g.members.empty(), "shared group with no members");
    topoOrder(); // panics on a cycle
}

CritPathResult
TaskGraph::criticalPath(const std::vector<TaskSpan>& spans) const
{
    CritPathResult r;
    if (tasks_.empty())
        return r;

    // Service time per task (zero when unmeasured).
    std::vector<Tick> service(tasks_.size(), 0);
    for (const TaskSpan& s : spans) {
        if (s.uid < tasks_.size())
            service[s.uid] = s.service();
    }
    for (const Tick s : service)
        r.serialCycles += s;

    // Longest path ending at each task, finalized in topological
    // order (edges may point in either uid direction now).
    std::vector<std::vector<TaskId>> preds(tasks_.size());
    for (const DepEdge& e : edges_)
        preds[e.consumer].push_back(e.producer);

    std::vector<Tick> dist(tasks_.size(), 0);
    std::vector<std::int64_t> pred(tasks_.size(), -1);
    for (const TaskId i : topoOrder()) {
        dist[i] = service[i];
        for (const TaskId p : preds[i]) {
            const Tick through = dist[p] + service[i];
            if (through > dist[i]) {
                dist[i] = through;
                pred[i] = p;
            }
        }
    }

    TaskId tail = 0;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        if (dist[i] > dist[tail])
            tail = static_cast<TaskId>(i);
    }
    r.criticalPathCycles = dist[tail];

    for (std::int64_t at = tail; at >= 0; at = pred[at])
        r.path.push_back(static_cast<TaskId>(at));
    std::reverse(r.path.begin(), r.path.end());
    return r;
}

} // namespace ts
