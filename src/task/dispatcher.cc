#include "task/dispatcher.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "mem/request.hh"

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "spatial/spatial.hh"
#include "trace/trace.hh"

namespace ts
{

namespace
{

/** Unique pipe identity for a producer output port. */
std::uint64_t
pipeIdOf(TaskId uid, std::uint8_t port)
{
    return (static_cast<std::uint64_t>(uid) << 3) | port;
}

} // namespace

const char*
schedPolicyName(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::Static: return "static";
      case SchedPolicy::DynCount: return "dyncount";
      case SchedPolicy::WorkAware: return "workaware";
      case SchedPolicy::Spatial: return "spatial";
    }
    return "?";
}

bool
schedPolicyFromName(const std::string& s, SchedPolicy& out)
{
    if (s == "static") { out = SchedPolicy::Static; return true; }
    if (s == "dyncount") { out = SchedPolicy::DynCount; return true; }
    if (s == "workaware") { out = SchedPolicy::WorkAware; return true; }
    if (s == "spatial") { out = SchedPolicy::Spatial; return true; }
    return false;
}

Dispatcher::Dispatcher(Noc& noc, const MemImage& img,
                       const TaskTypeRegistry& registry,
                       const DispatcherConfig& cfg)
    : Ticked("dispatcher"), noc_(noc), img_(img), registry_(registry),
      cfg_(cfg)
{
    if (cfg_.laneNodes.empty())
        fatal("dispatcher needs at least one lane");
    laneQueued_.assign(cfg_.laneNodes.size(), 0);
    laneWork_.assign(cfg_.laneNodes.size(), 0.0);
    laneDispatched_.assign(cfg_.laneNodes.size(), 0);
    actualService_.assign(cfg_.laneNodes.size(), 0.0);
    shadowService_.assign(cfg_.laneNodes.size(), 0.0);
    stealShadowService_.assign(cfg_.laneNodes.size(), 0.0);
    spatialLaneBufUsed_.assign(cfg_.laneNodes.size(), 0);
    noc_.eject(cfg_.selfNode).addObserver(this);
}

void
Dispatcher::loadGraph(const TaskGraph& graph)
{
    graph.validate();
    TS_ASSERT(states_.empty(), "dispatcher already has a graph loaded");

    states_.resize(graph.numTasks());
    for (std::size_t i = 0; i < graph.numTasks(); ++i) {
        states_[i].inst = graph.task(static_cast<TaskId>(i));
        states_[i].workEst =
            registry_.estimateWork(img_, states_[i].inst);
    }
    edges_.reserve(graph.edges().size());
    for (const DepEdge& e : graph.edges()) {
        const std::size_t idx = edges_.size();
        edges_.push_back(EdgeState{e, false, false});
        states_[e.consumer].inEdges.push_back(idx);
        states_[e.consumer].remDeps++;
        states_[e.producer].outEdges.push_back(idx);
    }
    for (const SharedGroup& g : graph.groups())
        groups_.push_back(GroupState{g, false, 0});

    // Dependence levels (longest path from the roots), used by the
    // bulk-synchronous static-parallel mode.  Edges may point in
    // either uid direction now, so walk a topological order.
    std::uint32_t maxLevel = 0;
    for (const TaskId i : graph.topoOrder()) {
        std::uint32_t lvl = 0;
        for (std::size_t ei : states_[i].inEdges) {
            lvl = std::max(lvl,
                           states_[edges_[ei].e.producer].level + 1);
        }
        states_[i].level = lvl;
        maxLevel = std::max(maxLevel, lvl);
    }
    levelRemaining_.assign(maxLevel + 1, 0);
    for (const TaskState& ts : states_)
        ++levelRemaining_[ts.level];

    for (std::size_t i = 0; i < states_.size(); ++i) {
        if (states_[i].remDeps == 0)
            readyQ_.push_back(static_cast<TaskId>(i));
    }
}

void
Dispatcher::processInbox(Tick now)
{
    auto& inbox = noc_.eject(cfg_.selfNode);
    while (!inbox.empty()) {
        Packet pkt = inbox.pop();
        switch (pkt.kind) {
          case PktKind::TaskStart: {
            const auto& msg = std::get<StartMsg>(pkt.payload);
            TaskState& ts = states_.at(msg.uid);
            ts.started = true;
            ts.startAt = now;
            if (trace::on()) {
                auto* t = trace::active();
                t->instant(t->track(name()), "taskStart",
                           trace::args("uid", msg.uid, "lane",
                                       msg.lane));
            }
            break;
          }
          case PktKind::TaskComplete:
            onComplete(std::get<CompleteMsg>(pkt.payload), now);
            break;
          case PktKind::TaskSpawn:
            onSpawn(*std::get<Boxed<SpawnMsg>>(pkt.payload), now);
            break;
          case PktKind::StealNotify:
            onStealNotify(*std::get<Boxed<StealNotifyMsg>>(pkt.payload),
                          now);
            break;
          default:
            panic("dispatcher received unexpected packet kind");
        }
    }
}

void
Dispatcher::onComplete(const CompleteMsg& msg, Tick now)
{
    TaskState& ts = states_.at(msg.uid);
    TS_ASSERT(ts.dispatched && !ts.completed);
    // A stolen task can complete on its thief lane before the
    // victim's StealNotify reaches us (different NoC paths); apply
    // the ownership move implicitly so queue bookkeeping balances.
    if (ts.lane != static_cast<std::int32_t>(msg.lane))
        applyStealMove(msg.uid, msg.lane);
    ts.completed = true;
    ts.endAt = now;
    ++completed_;

    // Attribution: charge this task's measured service time to its
    // actual lane, to the lane the static owner-compute baseline
    // would have used, and to the dispatch-time lane (the pre-steal
    // shadow); the differences in per-lane maxima are the imbalance
    // the dispatch policy avoided and the steal protocol recovered.
    const auto service =
        static_cast<double>(now - (ts.started ? ts.startAt : now));
    actualService_[msg.lane] += service;
    shadowService_[msg.uid % cfg_.laneNodes.size()] += service;
    TS_ASSERT(ts.origLane >= 0);
    stealShadowService_[ts.origLane] += service;

    // Overlap recovered by pipelining: consumers of this producer's
    // activated pipes that already started executed concurrently
    // with the producer — cycles a barrier dependence would have
    // serialized.
    for (std::size_t ei : ts.outEdges) {
        const EdgeState& es = edges_[ei];
        if (es.e.kind != DepKind::Pipeline || !es.activated)
            continue;
        const TaskState& cs = states_[es.e.consumer];
        if (!cs.started)
            continue;
        const Tick overlapEnd =
            cs.completed ? std::min(now, cs.endAt) : now;
        if (overlapEnd > cs.startAt) {
            pipeOverlapCycles_ +=
                static_cast<double>(overlapEnd - cs.startAt);
        }
    }
    if (trace::on()) {
        auto* t = trace::active();
        t->instant(t->track(name()), "taskComplete",
                   trace::args("uid", msg.uid, "lane", msg.lane));
        t->counter("dispatcher.tasks", "completed",
                   static_cast<double>(completed_));
    }
    TS_ASSERT(levelRemaining_[ts.level] > 0);
    --levelRemaining_[ts.level];
    while (curLevel_ < levelRemaining_.size() &&
           levelRemaining_[curLevel_] == 0) {
        ++curLevel_;
    }
    TS_ASSERT(ts.lane >= 0);
    TS_ASSERT(laneQueued_[ts.lane] > 0);
    --laneQueued_[ts.lane];
    laneWork_[ts.lane] -= ts.workEst;
    spatialRelease(msg.uid);

    for (std::size_t ei : ts.outEdges) {
        EdgeState& es = edges_[ei];
        TaskState& cs = states_[es.e.consumer];
        if (cs.dispatched)
            continue; // co-dispatched via an activated pipeline
        TS_ASSERT(cs.remDeps > 0);
        if (--cs.remDeps == 0) {
            cs.readyAt = now;
            readyQ_.push_back(es.e.consumer);
        }
    }
}

void
Dispatcher::onSpawn(const SpawnMsg& msg, Tick now)
{
    // Per-path NoC FIFO ordering guarantees the spawn precedes the
    // spawner's own CompleteMsg.
    // NOTE: states_ grows below; never hold a TaskState reference
    // across the push_backs (vector reallocation).
    TS_ASSERT(states_.at(msg.spawner).dispatched &&
                  !states_[msg.spawner].completed,
              "spawn from task ", msg.spawner,
              " arrived outside its execution window");
    const SpawnSet& set = msg.set;
    const std::size_t base = states_.size();

    const auto resolve = [&](std::int64_t ref) -> TaskId {
        if (ref >= 0) {
            TS_ASSERT(static_cast<std::size_t>(ref) < base,
                      "spawn set references unknown task ", ref);
            return static_cast<TaskId>(ref);
        }
        const std::size_t k = static_cast<std::size_t>(-ref) - 1;
        TS_ASSERT(k < set.tasks.size(),
                  "spawn set references unknown local task ", ref);
        return static_cast<TaskId>(base + k);
    };

    // Capture the spawner's pending successors *before* new edges are
    // wired: transfer covers the edges that predate this spawn.
    std::vector<std::size_t> transferable;
    if (set.transferTo != SpawnSet::kNoTransfer) {
        for (std::size_t ei : states_[msg.spawner].outEdges) {
            const EdgeState& es = edges_[ei];
            if (es.activated || states_[es.e.consumer].dispatched)
                continue;
            transferable.push_back(ei);
        }
    }

    for (const SpawnSet::Task& t : set.tasks) {
        TaskState ns;
        ns.inst.uid = static_cast<TaskId>(states_.size());
        ns.inst.type = t.type;
        ns.inst.inputs = t.inputs;
        ns.inst.outputs = t.outputs;
        ns.inst.inputGroup.assign(t.inputs.size(), kNoGroup);
        ns.workEst = registry_.estimateWork(img_, ns.inst);
        ns.readyAt = now;
        states_.push_back(std::move(ns));
    }
    tasksSpawned_ += set.tasks.size();
    spatialPlanSpawned(msg.spawner, base, set.tasks.size(),
                       set.transferTo != SpawnSet::kNoTransfer
                           ? static_cast<std::int64_t>(
                                 resolve(set.transferTo))
                           : -1);

    for (const SpawnSet::Edge& e : set.edges) {
        const TaskId p = resolve(e.producer);
        const TaskId c = resolve(e.consumer);
        TS_ASSERT(p != c, "spawned self-dependence on task ", p);
        TaskState& cs = states_[c];
        // The oneTBB dynamic-dependence contract: predecessors may
        // only be added to tasks that have not started executing.
        // Producers may be running or even complete.
        TS_ASSERT(!cs.dispatched,
                  "dynamic edge targets already-dispatched task ", c);
        const std::size_t idx = edges_.size();
        edges_.push_back(
            EdgeState{DepEdge{p, c, e.kind, e.producerPort,
                              e.consumerPort},
                      false, false});
        cs.inEdges.push_back(idx);
        states_[p].outEdges.push_back(idx);
        if (!states_[p].completed) {
            ++cs.remDeps;
        } else if (e.kind == DepKind::Pipeline) {
            // Nothing left to forward; the consumer reads the memory
            // fallback its descriptor names.
            edges_[idx].resolved = true;
            ++pipesDegraded_;
        }
    }

    if (set.transferTo != SpawnSet::kNoTransfer) {
        const TaskId heir = resolve(set.transferTo);
        TS_ASSERT(heir != msg.spawner,
                  "cannot transfer successors to the spawner itself");
        TS_ASSERT(!states_[heir].completed);
        for (const std::size_t ei : transferable) {
            EdgeState& es = edges_[ei];
            TS_ASSERT(es.e.consumer != heir,
                      "successor transfer would make task ", heir,
                      " depend on itself");
            es.e.producer = heir;
            // Forwarded stream identity does not survive a producer
            // change; the consumer falls back to memory.
            if (es.e.kind == DepKind::Pipeline) {
                es.e.kind = DepKind::Barrier;
                es.e.producerPort = 0;
                es.e.consumerPort = 0;
            }
            states_[heir].outEdges.push_back(ei);
        }
        if (!transferable.empty()) {
            auto& out = states_[msg.spawner].outEdges;
            out.erase(std::remove_if(
                          out.begin(), out.end(),
                          [&](std::size_t ei) {
                              return std::find(transferable.begin(),
                                               transferable.end(),
                                               ei) !=
                                     transferable.end();
                          }),
                      out.end());
        }
    }

    checkLiveAcyclic();

    // Dependence levels of the new tasks (bulk-sync bookkeeping).
    // Local producers may appear in any order, so iterate to a
    // fixpoint (bounded by the set size; spawn sets are small).
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t k = 0; k < set.tasks.size(); ++k) {
            TaskState& ns = states_[base + k];
            std::uint32_t lvl = 0;
            for (std::size_t ei : ns.inEdges) {
                lvl = std::max(
                    lvl, states_[edges_[ei].e.producer].level + 1);
            }
            if (lvl > ns.level) {
                ns.level = lvl;
                changed = true;
            }
        }
    }
    for (std::size_t k = 0; k < set.tasks.size(); ++k) {
        TaskState& ns = states_[base + k];
        if (ns.level >= levelRemaining_.size())
            levelRemaining_.resize(ns.level + 1, 0);
        ++levelRemaining_[ns.level];
        if (ns.remDeps == 0)
            readyQ_.push_back(static_cast<TaskId>(base + k));
    }

    if (trace::on()) {
        auto* t = trace::active();
        t->instant(t->track(name()), "taskSpawn",
                   trace::args("spawner", msg.spawner, "tasks",
                               set.tasks.size(), "edges",
                               set.edges.size()));
    }
}

void
Dispatcher::applyStealMove(TaskId uid, std::uint32_t toLane)
{
    TaskState& ts = states_.at(uid);
    TS_ASSERT(ts.dispatched && !ts.completed && ts.lane >= 0);
    const auto from = static_cast<std::uint32_t>(ts.lane);
    if (from == toLane)
        return;
    TS_ASSERT(laneQueued_[from] > 0);
    --laneQueued_[from];
    ++laneQueued_[toLane];
    laneWork_[from] -= ts.workEst;
    laneWork_[toLane] += ts.workEst;
    ts.lane = static_cast<std::int32_t>(toLane);
    ++tasksStolen_;
    stealHops_ += noc_.hopDistance(cfg_.laneNodes[from],
                                   cfg_.laneNodes[toLane]);
    if (trace::on()) {
        auto* t = trace::active();
        t->instant(t->track(name()), "taskStolen",
                   trace::args("uid", uid, "from", from, "to",
                               toLane));
    }
}

void
Dispatcher::onStealNotify(const StealNotifyMsg& msg, Tick now)
{
    (void)now;
    for (const TaskId uid : msg.uids) {
        const TaskState& ts = states_.at(uid);
        // The thief's CompleteMsg may have beaten this notify here
        // (onComplete already applied the move), or the task may
        // even be done; both are benign.
        if (ts.completed ||
            ts.lane == static_cast<std::int32_t>(msg.toLane)) {
            continue;
        }
        applyStealMove(uid, msg.toLane);
    }
}

void
Dispatcher::checkLiveAcyclic() const
{
    // Kahn over the whole dependence state; completed tasks cannot
    // sit on a cycle (their ancestors completed first), so one global
    // count suffices and panics exactly when the live subgraph has a
    // cycle.
    std::vector<std::uint32_t> indeg(states_.size(), 0);
    for (const EdgeState& es : edges_)
        ++indeg[es.e.consumer];
    std::deque<TaskId> frontier;
    for (std::size_t i = 0; i < states_.size(); ++i) {
        if (indeg[i] == 0)
            frontier.push_back(static_cast<TaskId>(i));
    }
    std::size_t seen = 0;
    while (!frontier.empty()) {
        const TaskId at = frontier.front();
        frontier.pop_front();
        ++seen;
        for (const std::size_t ei : states_[at].outEdges) {
            const TaskId next = edges_[ei].e.consumer;
            if (--indeg[next] == 0)
                frontier.push_back(next);
        }
    }
    TS_ASSERT(seen == states_.size(),
              "dynamic spawn closed a dependence cycle (",
              states_.size() - seen, " tasks on cycles)");
}

std::optional<std::vector<TaskId>>
Dispatcher::tryJoinClosure(TaskId c, std::vector<TaskId> set,
                           unsigned depth) const
{
    if (depth > 64)
        return std::nullopt;
    if (std::binary_search(set.begin(), set.end(), c))
        return set;
    const TaskState& cs = states_[c];
    if (cs.dispatched || cs.completed)
        return std::nullopt;

    set.insert(std::lower_bound(set.begin(), set.end(), c), c);
    for (std::size_t ei : cs.inEdges) {
        const EdgeState& es = edges_[ei];
        const TaskState& ps = states_[es.e.producer];
        if (ps.completed)
            continue;
        // A not-yet-complete producer is tolerable only when the data
        // will flow through an activated pipe, which requires the
        // producer itself to join this batch (recursively) and to be
        // able to forward (builtin bodies cannot).
        if (es.e.kind == DepKind::Pipeline &&
            !registry_.type(ps.inst.type).isBuiltin()) {
            if (auto joined = tryJoinClosure(es.e.producer,
                                             std::move(set),
                                             depth + 1)) {
                set = std::move(*joined);
                continue;
            }
            return std::nullopt;
        }
        return std::nullopt;
    }
    return set;
}

bool
Dispatcher::soonJoinable(TaskId c, unsigned depth) const
{
    // Will c become joinable without any new dispatch decisions?
    // True when every unsatisfied dependence is on a task that is
    // already executing (dispatched) or will be covered by a pipe
    // from a task in the same situation.
    if (depth > 64)
        return false;
    const TaskState& cs = states_[c];
    if (cs.dispatched || cs.completed)
        return false;
    for (std::size_t ei : cs.inEdges) {
        const EdgeState& es = edges_[ei];
        const TaskState& ps = states_[es.e.producer];
        if (ps.completed || ps.dispatched)
            continue;
        if (es.e.kind == DepKind::Pipeline &&
            !registry_.type(ps.inst.type).isBuiltin() &&
            soonJoinable(es.e.producer, depth + 1)) {
            continue;
        }
        return false;
    }
    return true;
}

std::vector<TaskId>
Dispatcher::pipelineClosure(TaskId root) const
{
    // Grow the co-dispatch set along pipeline edges.  Consumers join
    // when every unsatisfied dependence is itself a pipeline edge
    // whose producer joins the same batch (ready sibling subtrees are
    // pulled in transitively), so recovered pipelines span whole
    // ready regions of the task graph, not just linear chains.
    std::vector<TaskId> set{root};
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 0; i < set.size(); ++i) {
            const TaskState& xs = states_[set[i]];
            for (std::size_t ei : xs.outEdges) {
                const EdgeState& es = edges_[ei];
                if (es.e.kind != DepKind::Pipeline)
                    continue;
                if (std::binary_search(set.begin(), set.end(),
                                       es.e.consumer)) {
                    continue;
                }
                if (auto joined =
                        tryJoinClosure(es.e.consumer, set, 0)) {
                    set = std::move(*joined);
                    changed = true;
                }
            }
        }
    }
    return set;
}

std::int32_t
Dispatcher::pickLane(TaskId id,
                     const std::vector<std::uint32_t>& extraLoad,
                     const std::vector<double>& extraWork) const
{
    const std::size_t n = cfg_.laneNodes.size();
    auto available = [&](std::size_t l) {
        return laneQueued_[l] + extraLoad[l] < cfg_.laneQueueCap;
    };

    switch (cfg_.policy) {
      case SchedPolicy::Static: {
        const std::size_t l = id % n;
        return available(l) ? static_cast<std::int32_t>(l) : -1;
      }
      case SchedPolicy::DynCount: {
        std::int32_t best = -1;
        std::uint32_t bestLoad = 0;
        for (std::size_t l = 0; l < n; ++l) {
            if (!available(l))
                continue;
            const std::uint32_t load = laneQueued_[l] + extraLoad[l];
            if (best < 0 || load < bestLoad) {
                best = static_cast<std::int32_t>(l);
                bestLoad = load;
            }
        }
        return best;
      }
      case SchedPolicy::WorkAware: {
        std::int32_t best = -1;
        double bestWork = 0;
        for (std::size_t l = 0; l < n; ++l) {
            if (!available(l))
                continue;
            const double w = laneWork_[l] + extraWork[l];
            if (best < 0 || w < bestWork) {
                best = static_cast<std::int32_t>(l);
                bestWork = w;
            }
        }
        return best;
      }
      case SchedPolicy::Spatial: {
        // Hard pinning: forwarding decisions already named this lane
        // as the consumer's landing site, so the task waits for a
        // queue slot rather than migrate.
        const std::size_t l = spatialPlannedLane(id);
        return available(l) ? static_cast<std::int32_t>(l) : -1;
      }
    }
    return -1;
}

std::uint32_t
Dispatcher::spatialPlannedLane(TaskId id) const
{
    if (id < plannedLane_.size() && plannedLane_[id] >= 0)
        return static_cast<std::uint32_t>(plannedLane_[id]);
    return id % static_cast<std::uint32_t>(cfg_.laneNodes.size());
}

void
Dispatcher::spatialPlanSpawned(TaskId spawner, std::size_t base,
                               std::size_t count, std::int64_t heir)
{
    if (cfg_.policy != SchedPolicy::Spatial || count == 0)
        return;
    if (plannedLane_.size() < base)
        plannedLane_.resize(base, -1);
    plannedLane_.resize(base + count, -1);

    // The transfer heir inherits the spawner's planned lane: the AOT
    // plan put the spawner where its (now transferred) successors
    // want their producer, and sibling outputs forward into the heir
    // over the NoC regardless of where the siblings land.  Escape
    // hatch: when the inherited lane is overloaded relative to the
    // mean, the heir moves to the least-loaded lane (lowest index
    // wins, keeping the decision deterministic).
    std::uint32_t inherit = spatialPlannedLane(spawner);
    double mean = 0.0;
    for (const double w : laneWork_)
        mean += w;
    mean /= static_cast<double>(laneWork_.size());
    if (laneWork_[inherit] > cfg_.spatialRemapFactor * mean) {
        std::uint32_t best = 0;
        for (std::uint32_t l = 1; l < laneWork_.size(); ++l) {
            if (laneWork_[l] < laneWork_[best])
                best = l;
        }
        if (best != inherit) {
            inherit = best;
            ++spatialRemaps_;
        }
    }

    // Non-heir siblings are fresh parallel work; serializing them on
    // the spawner's lane would forfeit the recursion's parallelism.
    // Spread them over the least-loaded lanes, tracking this call's
    // own placements by estimated work (deterministic: laneWork_ and
    // workEst are simulated state).
    std::vector<double> load = laneWork_;
    const bool heirLocal =
        heir >= 0 && static_cast<std::size_t>(heir) >= base &&
        static_cast<std::size_t>(heir) < base + count;
    if (heirLocal) {
        plannedLane_[static_cast<std::size_t>(heir)] =
            static_cast<std::int32_t>(inherit);
        load[inherit] +=
            states_[static_cast<std::size_t>(heir)].workEst;
    }
    for (std::size_t k = 0; k < count; ++k) {
        const std::size_t id = base + k;
        if (heirLocal && static_cast<std::size_t>(heir) == id)
            continue;
        std::uint32_t best = 0;
        for (std::uint32_t l = 1; l < load.size(); ++l) {
            if (load[l] < load[best])
                best = l;
        }
        plannedLane_[id] = static_cast<std::int32_t>(best);
        load[best] += states_[id].workEst;
    }
}

void
Dispatcher::spatialResolveProducer(TaskId id, DispatchMsg& pm)
{
    const TaskState& ps = states_[id];
    const bool builtin =
        registry_.type(ps.inst.type).isBuiltin();
    for (std::size_t oi = 0; oi < pm.outputs.size(); ++oi) {
        WriteDesc& out = pm.outputs[oi];
        if (!spatial::forwardableOutput(out))
            continue;
        // Builtin bodies only stream outputs[0] through the timed
        // write path (see TaskUnit::BuiltinWrite).
        if (builtin && oi != 0)
            continue;

        // Forward to every successor whose eligible input covers this
        // output; suppress the DRAM write-back only when *all*
        // successors that touch the range were forwarded (an
        // un-analyzable reader keeps the round-trip).
        bool touched = false;
        bool forwardedAll = true;
        std::vector<std::uint64_t> fwdGroups; // dedupe multi-edges
        for (std::size_t ei : ps.outEdges) {
            const TaskId c = edges_[ei].e.consumer;
            const TaskState& cs = states_[c];
            if (cs.dispatched || cs.completed)
                continue;
            for (std::size_t p = 0; p < cs.inst.inputs.size(); ++p) {
                const StreamDesc& in = cs.inst.inputs[p];
                if (in.dataSpace != Space::Dram)
                    continue;
                const bool eligible =
                    spatial::landingEligibleInput(in) &&
                    cs.inst.inputGroup[p] == kNoGroup;
                if (!eligible) {
                    // Gather/CSR reads have no statically known
                    // range: assume they may touch this output.
                    if (in.kind != StreamDesc::Kind::Linear ||
                        spatial::outputFeedsInput(out, in)) {
                        touched = true;
                        forwardedAll = false;
                    }
                    continue;
                }
                if (!spatial::outputFeedsInput(out, in))
                    continue;
                touched = true;
                const std::uint64_t g = spatial::landingGroup(
                    c, static_cast<std::uint8_t>(p));
                if (std::find(fwdGroups.begin(), fwdGroups.end(),
                              g) != fwdGroups.end()) {
                    continue;
                }
                auto it = spatialGroups_.find(g);
                if (it == spatialGroups_.end()) {
                    SpatialGroup sg;
                    sg.consumer = c;
                    sg.port = static_cast<std::uint8_t>(p);
                    sg.lane = static_cast<std::int32_t>(
                        spatialPlannedLane(c));
                    sg.bufWords = spatial::landingBufWords(in);
                    if (spatialLaneBufUsed_[sg.lane] + sg.bufWords >
                        cfg_.spatialBufferWords) {
                        sg.spilled = true;
                        ++spatialSpills_;
                    } else {
                        spatialLaneBufUsed_[sg.lane] += sg.bufWords;
                        sg.allocated = true;
                        ++spatialGroupsAllocated_;
                        spatialBufPeak_ =
                            std::max(spatialBufPeak_,
                                     spatialLaneBufUsed_[sg.lane]);
                    }
                    it = spatialGroups_.emplace(g, sg).first;
                }
                if (it->second.spilled) {
                    forwardedAll = false;
                    continue;
                }
                out.spatialDsts.push_back(WriteDesc::SpatialDst{
                    cfg_.laneNodes[it->second.lane], g});
                ++it->second.expectedDones;
                ++spatialForwards_;
                fwdGroups.push_back(g);
                if (trace::on()) {
                    auto* t = trace::active();
                    t->instant(t->track(name()), "spatialForward",
                               trace::args("producer", id, "consumer",
                                           c));
                }
            }
        }
        if (touched && forwardedAll && !out.spatialDsts.empty())
            out.spatialSuppress = true;
    }
}

void
Dispatcher::spatialRewriteConsumer(TaskId id, DispatchMsg& m)
{
    for (std::size_t p = 0; p < m.inputs.size(); ++p) {
        const std::uint64_t g = spatial::landingGroup(
            id, static_cast<std::uint8_t>(p));
        const auto it = spatialGroups_.find(g);
        if (it == spatialGroups_.end() || it->second.spilled ||
            it->second.expectedDones == 0) {
            continue;
        }
        m.inputs[p].spatialLanding = true;
        m.waitSpatial.push_back(
            SpatialWait{g, it->second.expectedDones});
    }
}

void
Dispatcher::spatialRelease(TaskId uid)
{
    const std::uint64_t lo = static_cast<std::uint64_t>(uid) << 3;
    auto it = spatialGroups_.lower_bound(lo);
    while (it != spatialGroups_.end() && it->first <= (lo | 7)) {
        if (it->second.allocated) {
            TS_ASSERT(spatialLaneBufUsed_[it->second.lane] >=
                      it->second.bufWords);
            spatialLaneBufUsed_[it->second.lane] -=
                it->second.bufWords;
        }
        it = spatialGroups_.erase(it);
    }
}

void
Dispatcher::enqueueDispatch(TaskId id, DispatchMsg msg)
{
    TaskState& ts = states_[id];
    TS_ASSERT(ts.lane >= 0);
    ts.dispatched = true;
    ts.origLane = ts.lane;
    ++laneQueued_[ts.lane];
    laneWork_[ts.lane] += ts.workEst;
    ++laneDispatched_[ts.lane];
    if (trace::on()) {
        auto* t = trace::active();
        t->instant(t->track(name()), "dispatch",
                   trace::args("uid", id, "lane", ts.lane, "workEst",
                               ts.workEst));
    }

    Packet pkt;
    pkt.src = cfg_.selfNode;
    pkt.dstMask = Packet::unicast(cfg_.laneNodes[ts.lane]);
    pkt.kind = PktKind::TaskDispatch;
    pkt.sizeWords = 4 + 2 * static_cast<std::uint32_t>(
                            msg.inputs.size() + msg.outputs.size());
    pkt.payload = std::move(msg);
    sendQ_.push_back(std::move(pkt));
}

void
Dispatcher::fireGroup(std::uint32_t groupId)
{
    GroupState& gs = groups_.at(groupId);
    TS_ASSERT(!gs.fired);
    gs.fired = true;
    ++groupsFired_;
    if (trace::on()) {
        auto* t = trace::active();
        t->instant(t->track(name()), "groupFire",
                   trace::args("group", groupId, "words", gs.g.words));
    }

    gs.landingOffset = landingBrk_;
    landingBrk_ += divCeil<std::uint64_t>(gs.g.words, lineWords) *
                   lineWords;
    if (landingBrk_ > cfg_.spmLandingWords) {
        fatal("scratchpad shared-landing space exhausted (",
              landingBrk_, " > ", cfg_.spmLandingWords,
              " words); enlarge the scratchpad or shrink groups");
    }

    // The range is multicast into every lane's scratchpad, so any
    // member — whenever it is dispatched, to whichever lane — can
    // read the landed copy.
    std::uint64_t laneMask = 0;
    for (const std::uint32_t node : cfg_.laneNodes)
        laneMask |= Packet::unicast(node);

    GroupSetupMsg setup{groupId, gs.g.rangeBase, gs.g.words,
                        gs.landingOffset};
    Packet sp;
    sp.src = cfg_.selfNode;
    sp.dstMask = laneMask;
    sp.kind = PktKind::SharedFill;
    sp.sizeWords = 4;
    sp.payload = setup;
    sendQ_.push_back(std::move(sp));

    const Addr firstLine = lineAlign(gs.g.rangeBase);
    const Addr lastByte = gs.g.rangeBase + gs.g.words * wordBytes - 1;
    const std::uint64_t lines =
        (lineAlign(lastByte) - firstLine) / lineBytes + 1;
    for (std::uint64_t l = 0; l < lines; ++l) {
        MemReq req;
        req.lineAddr = firstLine + l * lineBytes;
        req.write = false;
        req.srcNode = cfg_.selfNode;
        req.multicastMask = laneMask;
        req.tag = sharedFillTag(groupId);
        Packet fp;
        fp.src = cfg_.selfNode;
        fp.dstMask = Packet::unicast(cfg_.memNode);
        fp.kind = PktKind::MemReq;
        fp.sizeWords = 1;
        fp.payload = req;
        sendQ_.push_back(std::move(fp));
        ++fillLinesRequested_;
    }
}

bool
Dispatcher::tryDispatchHead(Tick now)
{
    (void)now;
    const TaskId root = readyQ_.front();
    TaskState& rs = states_[root];
    if (rs.dispatched || rs.completed) {
        readyQ_.pop_front();
        return true;
    }
    // A dynamic edge may have targeted this task after it became
    // ready; drop the stale entry — it re-enters the queue when the
    // new dependence resolves.
    if (rs.remDeps > 0) {
        readyQ_.pop_front();
        return true;
    }

    // Bulk-synchronous mode: wait for the level barrier.
    if (cfg_.bulkSynchronous && rs.level > curLevel_) {
        readyQ_.pop_front();
        readyQ_.push_back(root);
        return false;
    }

    // 1. Pipeline closure (TaskStream) or the single task (baseline).
    // Spatial dispatch is always solo: forwarding happens through
    // landing zones, not co-dispatched pipe batches.
    std::vector<TaskId> closure =
        (cfg_.enablePipeline && cfg_.policy != SchedPolicy::Spatial)
            ? pipelineClosure(root)
            : std::vector<TaskId>{root};

    // Cap the batch at the total free queue slots (members may share
    // lanes; intra-batch uid order keeps per-lane queues topological,
    // which makes sharing deadlock-free).
    std::uint32_t freeSlots = 0;
    for (std::size_t l = 0; l < cfg_.laneNodes.size(); ++l) {
        freeSlots += cfg_.laneQueueCap > laneQueued_[l]
                         ? cfg_.laneQueueCap - laneQueued_[l]
                         : 0;
    }
    if (freeSlots == 0)
        return false;
    if (closure.size() > freeSlots)
        closure.resize(freeSlots);

    // Coalescing hold: if the root still has pipeline consumers that
    // could not join this closure but will become joinable without
    // further dispatch decisions (their blockers are all running),
    // hold the root.  The lanes are busy with exactly those blockers,
    // so holding costs nothing and lets whole pipeline regions
    // co-dispatch.
    // Holding is only free while every lane has work; if any lane
    // is idle, dispatch immediately.
    bool allLanesBusy = true;
    for (std::size_t l = 0; l < cfg_.laneNodes.size(); ++l) {
        if (laneQueued_[l] == 0) {
            allLanesBusy = false;
            break;
        }
    }
    const Tick waited = now - rs.readyAt;
    const bool withinHold =
        (allLanesBusy && waited < cfg_.pipelineHoldCycles) ||
        waited < cfg_.pipelineGraceCycles;
    if (cfg_.enablePipeline && cfg_.policy != SchedPolicy::Spatial &&
        withinHold) {
        for (const TaskId member : closure) {
            for (std::size_t ei : states_[member].outEdges) {
                const EdgeState& es = edges_[ei];
                if (es.e.kind != DepKind::Pipeline || es.resolved)
                    continue;
                if (std::binary_search(closure.begin(), closure.end(),
                                       es.e.consumer)) {
                    continue;
                }
                if (soonJoinable(es.e.consumer, 0)) {
                    readyQ_.pop_front();
                    readyQ_.push_back(root);
                    return true;
                }
            }
        }
    }

    // 2. Assign lanes to closure members in uid (topological) order;
    // members may share lanes.  If capacity runs out, the
    // consumer-side suffix is dropped — safe, because a dropped task
    // can never be the producer of a kept one.
    std::vector<std::uint32_t> extraLoad(cfg_.laneNodes.size(), 0);
    std::vector<double> extraWork(cfg_.laneNodes.size(), 0.0);
    std::vector<TaskId> placed;
    for (std::size_t i = 0; i < closure.size(); ++i) {
        const TaskId id = closure[i];
        const std::int32_t lane = pickLane(id, extraLoad, extraWork);
        if (lane < 0) {
            if (i == 0)
                return false; // not even the root fits: retry later
            closure.resize(i);
            break;
        }
        states_[id].lane = lane;
        ++extraLoad[lane];
        extraWork[lane] += states_[id].workEst;
        placed.push_back(id);
    }

    // (Shared-read groups no longer require co-dispatch: fills go to
    // every lane, so members are rewritten whenever they dispatch —
    // see step 4.)

    // 4. Build messages with pipeline/shared rewrites.
    std::map<TaskId, DispatchMsg> msgs;
    for (TaskId id : placed) {
        DispatchMsg m;
        m.uid = id;
        m.type = states_[id].inst.type;
        m.inputs = states_[id].inst.inputs;
        m.outputs = states_[id].inst.outputs;
        m.workEst = states_[id].workEst;
        m.dispatchedAt = now;
        // Solo dispatches are migratable between lanes: no pipeline
        // co-dispatch batch whose intra-lane uid order must survive.
        // Spatial tasks never migrate — the plan pinned their lane.
        m.stealable = cfg_.steal != StealPolicy::None &&
                      placed.size() == 1 &&
                      cfg_.policy != SchedPolicy::Spatial;
        msgs.emplace(id, std::move(m));
    }

    auto inBatch = [&](TaskId id) {
        return msgs.count(id) != 0;
    };

    // Pipeline edge resolution (only closure members carry them).
    // Two consumers of the same producer port share one forwarded
    // stream, so they must sit on different lanes; a duplicate-lane
    // consumer degrades to the memory fallback.
    std::map<std::uint64_t, std::uint64_t> pipeLanesUsed;
    for (TaskId id : closure) {
        if (!inBatch(id))
            continue;
        for (std::size_t ei : states_[id].outEdges) {
            EdgeState& es = edges_[ei];
            if (es.e.kind != DepKind::Pipeline || es.resolved)
                continue;
            es.resolved = true;
            const TaskId c = es.e.consumer;
            bool canForward =
                !registry_.type(states_[id].inst.type).isBuiltin();
            if (canForward && inBatch(c)) {
                const std::uint64_t key =
                    pipeIdOf(id, es.e.producerPort);
                const std::uint64_t laneBit =
                    std::uint64_t{1} << states_[c].lane;
                if (pipeLanesUsed[key] & laneBit)
                    canForward = false; // same-lane stream collision
                else
                    pipeLanesUsed[key] |= laneBit;
            }
            if (cfg_.enablePipeline && inBatch(c) && canForward) {
                es.activated = true;
                ++pipesActivated_;
                if (trace::on()) {
                    auto* t = trace::active();
                    t->instant(t->track(name()), "pipeActivated",
                               trace::args("producer", id, "consumer",
                                           c));
                }
                const std::uint64_t pid = pipeIdOf(id, es.e.producerPort);
                DispatchMsg& pm = msgs.at(id);
                WriteDesc& out = pm.outputs.at(es.e.producerPort);
                out.pipeDstMask |= Packet::unicast(
                    cfg_.laneNodes[states_[c].lane]);
                out.pipeId = pid;
                DispatchMsg& cm = msgs.at(c);
                cm.inputs.at(es.e.consumerPort) =
                    StreamDesc::pipeIn(pid);
                cm.releasePipes.push_back(pid);
            } else {
                ++pipesDegraded_;
                if (trace::on()) {
                    auto* t = trace::active();
                    t->instant(t->track(name()), "pipeDegraded",
                               trace::args("producer", id, "consumer",
                                           c));
                }
            }
        }
    }

    // Shared-read rewrites: fire each referenced group once, then
    // point the member's input at the scratchpad landing.
    if (cfg_.enableMulticast) {
        for (TaskId id : placed) {
            const TaskInstance& inst = states_[id].inst;
            DispatchMsg& mm = msgs.at(id);
            for (std::size_t port = 0; port < inst.inputs.size();
                 ++port) {
                const std::uint32_t gId = inst.inputGroup[port];
                if (gId == kNoGroup)
                    continue;
                GroupState& gs = groups_.at(gId);
                if (!gs.fired)
                    fireGroup(gId);
                StreamDesc& d = mm.inputs[port];
                // Unicast-replay cost of this member's read, had the
                // range not been multicast into every scratchpad.
                mcastUnicastLinesEquiv_ += divCeil<std::uint64_t>(
                    d.elementCount(img_), lineWords);
                d.dataSpace = Space::Spm;
                d.dataBase = gs.landingOffset +
                             (d.dataBase - gs.g.rangeBase) / wordBytes;
                TS_ASSERT(mm.waitGroup == kNoGroup ||
                              mm.waitGroup == gId,
                          "a task may subscribe to one group");
                mm.waitGroup = gId;
            }
        }
    }

    // 4.5 Spatial rewrites: gate the consumer side on forwarded
    // streams already decided by its producers' dispatches, then
    // make this batch's own producer-side forwarding decisions.
    if (cfg_.policy == SchedPolicy::Spatial) {
        for (TaskId id : placed) {
            spatialRewriteConsumer(id, msgs.at(id));
            spatialResolveProducer(id, msgs.at(id));
        }
    }

    // 5. Commit: mark dispatched and queue the dispatch packets in
    // uid order (producers before consumers).
    readyWait_.sample(static_cast<double>(now - rs.readyAt));
    readyQ_.pop_front();
    for (TaskId id : placed) {
        auto node = msgs.extract(id);
        enqueueDispatch(id, std::move(node.mapped()));
    }
    return true;
}

void
Dispatcher::tick(Tick now)
{
    processInbox(now);

    // Drain the send queue.
    std::uint32_t sends = cfg_.sendPerCycle;
    while (sends > 0 && !sendQ_.empty()) {
        if (!noc_.inject(sendQ_.front()))
            break;
        sendQ_.pop_front();
        --sends;
    }

    // Dispatch ready tasks (bounded per cycle; keep the send queue
    // from growing without bound).
    std::uint32_t dispatches = 4;
    while (dispatches > 0 && !readyQ_.empty() &&
           sendQ_.size() < 4096) {
        if (!tryDispatchHead(now))
            break;
        --dispatches;
    }

    if (trace::on() && readyQ_.size() != tracedReadyDepth_) {
        tracedReadyDepth_ = readyQ_.size();
        trace::active()->counter(
            "dispatcher.readyQ", "depth",
            static_cast<double>(tracedReadyDepth_));
    }

    // With no inbound packets, nothing to send, and an empty ready
    // queue, every future tick is a no-op until the NoC delivers a
    // TaskStart/TaskComplete (the eject channel wakes us).  A
    // non-empty ready queue must keep ticking: held-back tasks
    // (pipeline grace, bulk-sync barriers) re-evaluate per cycle.
    if (readyQ_.empty() && sendQ_.empty() &&
        noc_.eject(cfg_.selfNode).empty()) {
        sleepOnWake();
    }
}

double
Dispatcher::actualMaxServiceCycles() const
{
    double m = 0;
    for (const double v : actualService_)
        m = std::max(m, v);
    return m;
}

double
Dispatcher::shadowStaticMaxServiceCycles() const
{
    double m = 0;
    for (const double v : shadowService_)
        m = std::max(m, v);
    return m;
}

double
Dispatcher::imbalanceCyclesAvoided() const
{
    return std::max(0.0, shadowStaticMaxServiceCycles() -
                             actualMaxServiceCycles());
}

double
Dispatcher::stealShadowMaxServiceCycles() const
{
    double m = 0;
    for (const double v : stealShadowService_)
        m = std::max(m, v);
    return m;
}

double
Dispatcher::stealImbalanceCyclesRecovered() const
{
    return std::max(0.0, stealShadowMaxServiceCycles() -
                             actualMaxServiceCycles());
}

std::vector<TaskSpan>
Dispatcher::taskSpans() const
{
    std::vector<TaskSpan> out;
    out.reserve(completed_);
    for (std::size_t i = 0; i < states_.size(); ++i) {
        const TaskState& ts = states_[i];
        if (!ts.completed)
            continue;
        TaskSpan s;
        s.uid = static_cast<TaskId>(i);
        s.start = ts.started ? ts.startAt : ts.endAt;
        s.end = ts.endAt;
        s.lane = ts.lane;
        out.push_back(s);
    }
    return out;
}

bool
Dispatcher::busy() const
{
    return !sendQ_.empty() || (!states_.empty() && !allComplete());
}

void
Dispatcher::reportStats(StatSet& stats) const
{
    stats.set("dispatcher.pipesActivated",
              static_cast<double>(pipesActivated_));
    stats.set("dispatcher.pipesDegraded",
              static_cast<double>(pipesDegraded_));
    stats.set("dispatcher.groupsFired",
              static_cast<double>(groupsFired_));
    stats.set("dispatcher.groupMembersDegraded",
              static_cast<double>(groupMembersDegraded_));
    stats.set("dispatcher.fillLines",
              static_cast<double>(fillLinesRequested_));
    stats.set("dispatcher.tasksCompleted",
              static_cast<double>(completed_));
    stats.set("dispatcher.attrib.actualMaxService",
              actualMaxServiceCycles());
    stats.set("dispatcher.attrib.shadowStaticMaxService",
              shadowStaticMaxServiceCycles());
    stats.set("dispatcher.attrib.imbalanceCyclesAvoided",
              imbalanceCyclesAvoided());
    stats.set("dispatcher.attrib.pipeOverlapCycles",
              pipeOverlapCycles_);
    stats.set("dispatcher.attrib.mcastUnicastLinesEquiv",
              static_cast<double>(mcastUnicastLinesEquiv_));
    stats.set("dispatcher.tasksSpawned",
              static_cast<double>(tasksSpawned_));
    stats.set("dispatcher.attrib.steal.tasksStolen",
              static_cast<double>(tasksStolen_));
    stats.set("dispatcher.attrib.steal.hopsTraveled",
              static_cast<double>(stealHops_));
    stats.set("dispatcher.attrib.steal.shadowMaxService",
              stealShadowMaxServiceCycles());
    stats.set("dispatcher.attrib.steal.imbalanceCyclesRecovered",
              stealImbalanceCyclesRecovered());
    if (cfg_.policy == SchedPolicy::Spatial) {
        stats.set("dispatcher.spatial.forwards",
                  static_cast<double>(spatialForwards_));
        stats.set("dispatcher.spatial.spills",
                  static_cast<double>(spatialSpills_));
        stats.set("dispatcher.spatial.remaps",
                  static_cast<double>(spatialRemaps_));
        stats.set("dispatcher.spatial.groups",
                  static_cast<double>(spatialGroupsAllocated_));
        stats.set("dispatcher.spatial.bufPeakWords",
                  static_cast<double>(spatialBufPeak_));
    }
    for (std::size_t l = 0; l < laneDispatched_.size(); ++l) {
        stats.set("dispatcher.lane" + std::to_string(l) + ".dispatched",
                  static_cast<double>(laneDispatched_[l]));
    }
}

} // namespace ts
