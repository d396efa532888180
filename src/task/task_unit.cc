#include "task/task_unit.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace ts
{

TaskUnit::TaskUnit(std::string name, const TaskTypeRegistry& registry,
                   TaskUnitPorts ports)
    : Ticked(std::move(name)), registry_(registry),
      ports_(std::move(ports))
{
    TS_ASSERT(ports_.fabric != nullptr && ports_.landing != nullptr &&
              ports_.send && ports_.memPort != nullptr &&
              ports_.image != nullptr && ports_.stats != nullptr);
    // The inputs of classify() and dfgExecutionDone() that change
    // outside our own tick, so the Running sleep can wake on them.
    ports_.fabric->wakeOnProgress(this);
    for (ReadEngine* re : ports_.readEngines)
        re->wakeOnProbeChange(this);
    for (WriteEngine* we : ports_.writeEngines)
        we->wakeOnProbeChange(this);
}

void
TaskUnit::deliver(DispatchMsg msg)
{
    inbox_.push_back(std::move(msg));
    rearmSteal();
    requestWake();
}

void
TaskUnit::queueMsg(PktKind kind, PacketPayload payload,
                   std::uint32_t sizeWords)
{
    queueMsgTo(ports_.dispatcherNode, kind, std::move(payload),
               sizeWords);
}

void
TaskUnit::queueMsgTo(std::uint32_t dstNode, PktKind kind,
                     PacketPayload payload, std::uint32_t sizeWords)
{
    Packet pkt;
    pkt.src = ports_.selfNode;
    pkt.dstMask = Packet::unicast(dstNode);
    pkt.kind = kind;
    pkt.sizeWords = sizeWords;
    pkt.payload = std::move(payload);
    sendQ_.push_back(std::move(pkt));
}

void
TaskUnit::cutBuiltinChunk(const WriteDesc& out, bool done)
{
    for (const Forward& f : out.forwards) {
        sendQ_.push_back(forwardPacket(
            ports_.selfNode, ForwardChunk{f, builtinFwdWords_, done, {}}));
        ++spatialChunksSent_;
    }
    builtinFwdWords_ = 0;
}

TaskUnit::TypeProbes&
TaskUnit::typeProbes(TaskTypeId type)
{
    while (typeProbes_.size() <= type) {
        const std::string& name =
            registry_.type(static_cast<TaskTypeId>(typeProbes_.size()))
                .name;
        typeProbes_.push_back(TypeProbes{
            StatProbe(*ports_.stats, "task." + name + ".serviceCycles"),
            StatProbe(*ports_.stats, "task." + name + ".latencyCycles")});
    }
    return typeProbes_[type];
}

void
TaskUnit::rearmSteal()
{
    stealExhausted_ = false;
    stealProbeIdx_ = 0;
}

void
TaskUnit::maybeProbeSteal()
{
    if (ports_.steal == StealPolicy::None || ports_.victims.empty())
        return;
    if (stealWaiting_ || stealExhausted_ || !sendQ_.empty())
        return;
    const auto& [lane, node] = ports_.victims[stealProbeIdx_];
    (void)lane;
    ++stealReqSent_;
    queueMsgTo(node, PktKind::StealRequest,
               StealRequestMsg{ports_.laneIndex, ports_.selfNode}, 1);
    stealWaiting_ = true;
}

void
TaskUnit::onStealRequest(const StealRequestMsg& req)
{
    ++stealReqRecv_;
    std::vector<DispatchMsg> loot;
    if (ports_.steal != StealPolicy::None) {
        std::size_t stealable = 0;
        for (const DispatchMsg& m : inbox_)
            stealable += m.stealable ? 1 : 0;
        std::size_t want = 0;
        if (stealable > 0) {
            want = ports_.steal == StealPolicy::StealOne
                       ? 1
                       : (stealable + 1) / 2;
        }
        // Take from the back of the queue: the work that would have
        // waited longest here, and the least likely to be adjacent to
        // what this lane is already running.
        for (std::size_t i = inbox_.size();
             i-- > 0 && loot.size() < want;) {
            if (!inbox_[i].stealable)
                continue;
            loot.push_back(std::move(inbox_[i]));
            inbox_.erase(inbox_.begin() +
                         static_cast<std::ptrdiff_t>(i));
        }
        std::reverse(loot.begin(), loot.end()); // keep queue order
    }
    if (loot.empty()) {
        queueMsgTo(req.thiefNode, PktKind::StealDeny,
                   StealDenyMsg{ports_.laneIndex}, 1);
    } else {
        tasksGivenOut_ += loot.size();
        std::uint32_t words = 1;
        std::vector<TaskId> uids;
        uids.reserve(loot.size());
        for (const DispatchMsg& m : loot) {
            words += 4 + 2 * static_cast<std::uint32_t>(
                                 m.inputs.size() + m.outputs.size());
            uids.push_back(m.uid);
        }
        // Inform the dispatcher first, then hand over the tasks; the
        // two travel different paths, so the dispatcher also tolerates
        // a thief's CompleteMsg overtaking the notify.
        queueMsgTo(ports_.dispatcherNode, PktKind::StealNotify,
                   StealNotifyMsg{ports_.laneIndex, req.thiefLane,
                                  uids},
                   1 + static_cast<std::uint32_t>(uids.size()));
        queueMsgTo(req.thiefNode, PktKind::StealGrant,
                   StealGrantMsg{ports_.laneIndex, std::move(loot)},
                   words);
    }
    requestWake();
}

void
TaskUnit::onStealGrant(StealGrantMsg msg)
{
    ++stealGrants_;
    stealWaiting_ = false;
    tasksStolenIn_ += msg.tasks.size();
    for (DispatchMsg& m : msg.tasks)
        inbox_.push_back(std::move(m));
    rearmSteal();
    requestWake();
}

void
TaskUnit::onStealDeny(const StealDenyMsg& msg)
{
    (void)msg;
    ++stealDenies_;
    stealWaiting_ = false;
    ++stealProbeIdx_;
    if (stealProbeIdx_ >= ports_.victims.size()) {
        // A full round of denies: stop probing until new activity
        // (a deliver or grant) re-arms the round, so an idle tail
        // does not spin the NoC forever.
        stealProbeIdx_ = 0;
        stealExhausted_ = true;
    }
    requestWake();
}

void
TaskUnit::sendPending()
{
    while (!sendQ_.empty()) {
        if (!ports_.send(sendQ_.front()))
            return;
        sendQ_.pop_front();
    }
}

void
TaskUnit::beginTask(Tick now)
{
    const TaskType& type = registry_.type(cur_.type);

    queueMsg(PktKind::TaskStart,
             StartMsg{cur_.uid, ports_.laneIndex}, 1);

    if (type.isBuiltin()) {
        // Stage input traffic through sink read streams.
        TS_ASSERT(cur_.inputs.size() <= ports_.readEngines.size(),
                  name(), ": task needs more read engines");
        for (std::size_t i = 0; i < cur_.inputs.size(); ++i)
            ports_.readEngines[i]->program(cur_.inputs[i], nullptr);
        phase_ = Phase::BuiltinRead;
        return;
    }

    ports_.fabric->configure(&type.mapped, now);
    phase_ = Phase::Config;
}

bool
TaskUnit::dfgExecutionDone() const
{
    for (std::size_t i = 0; i < cur_.inputs.size(); ++i) {
        if (ports_.readEngines[i]->active())
            return false;
    }
    for (std::size_t o = 0; o < cur_.outputs.size(); ++o) {
        if (ports_.writeEngines[o]->active())
            return false;
    }
    return ports_.fabric->drained();
}

CycleClass
TaskUnit::classify(bool fabricProgressed) const
{
    switch (phase_) {
      case Phase::Idle:
        if (!inbox_.empty())
            return CycleClass::Busy; // picks up a task this cycle
        return sendQ_.empty() ? CycleClass::Idle : CycleClass::NocWait;
      case Phase::WaitFill:
        return CycleClass::MemWait; // gated landings in flight
      case Phase::Config:
      case Phase::BuiltinCompute:
        return CycleClass::Busy;
      case Phase::BuiltinWrite:
        return builtinWriteBlocked_ ? CycleClass::MemWait
                                    : CycleClass::Busy;
      case Phase::Finish:
        return sendQ_.empty() ? CycleClass::Busy : CycleClass::NocWait;
      case Phase::Running:
      case Phase::BuiltinRead: {
        // A cycle where the fabric fired a PE is forward progress,
        // however many fetches are still in flight (prefetch overlap
        // is the common case, not a stall).
        if (phase_ == Phase::Running && fabricProgressed)
            return CycleClass::Busy;
        bool mem = false;
        bool net = false;
        for (const ReadEngine* re : ports_.readEngines) {
            mem |= re->waitingOnMem();
            net |= re->waitingOnPipe();
        }
        for (const WriteEngine* we : ports_.writeEngines) {
            mem |= we->blockedOnMem();
            net |= we->blockedOnNoc();
        }
        if (mem)
            return CycleClass::MemWait;
        if (net)
            return CycleClass::NocWait;
        return CycleClass::Busy;
      }
    }
    return CycleClass::Idle;
}

void
TaskUnit::accountCycle()
{
    const std::uint64_t firings = ports_.fabric->firings();
    const CycleClass cls = classify(firings != lastFirings_);
    lastFirings_ = firings;
    buckets_.account(cls);
    if (auto* t = tracer();
        t != nullptr && (cls != lastClass_ || !stateSpanOpen_)) {
        const trace::TrackId tid = t->track(name() + ".state");
        if (stateSpanOpen_)
            t->end(tid);
        t->begin(tid, cycleClassName(cls));
        stateSpanOpen_ = true;
    }
    lastClass_ = cls;
}

void
TaskUnit::tick(Tick now)
{
    catchUp(now);
    expectedNext_ = now + 1;

    accountCycle();
    step(now);

    // Sleep decision.  Every site must leave gapClass_/gapBusy_
    // matching what classify()/busyCycles_ would have produced on
    // every skipped cycle.
    if (!sendQ_.empty())
        return;
    if (phase_ == Phase::Idle && inbox_.empty()) {
        // classify() == Idle and busyCycles_ untouched until a
        // deliver() arrives (which wakes us the same cycle).
        if (sleepsAs(CycleClass::Idle, false))
            sleepOnWake();
    } else if (phase_ == Phase::BuiltinCompute && now < computeUntil_) {
        // classify() == Busy and busyCycles_ increments on every
        // cycle spent in BuiltinCompute; nothing external can change
        // that before computeUntil_.  A deliver() wake before then is
        // spurious but safe (we just resume per-cycle ticking).
        if (sleepsAs(CycleClass::Busy, true))
            sleepUntil(computeUntil_);
    } else if (phase_ == Phase::Running ||
               phase_ == Phase::BuiltinRead) {
        // classify() keeps returning classify(false) and the task is
        // not done (its inputs not staged) until an input of either
        // changes: an engine probe (the engines wake us), a fabric
        // firing or drain (the fabric wakes us), or a packet the lane
        // adapter ejects (MSHR fills and pipe chunks flip probes; the
        // adapter wakes us).
        if (sleepsAs(classify(false), true))
            sleepOnWake();
    } else if (phase_ == Phase::BuiltinWrite && builtinWriteBlocked_) {
        // Every tick would retry the refused line write, and classify
        // as MemWait, until the memory port frees a slot.
        if (sleepsAs(CycleClass::MemWait, true)) {
            ports_.memPort->armSpaceWake(this);
            sleepOnWake();
        }
    }
}

bool
TaskUnit::sleepsAs(CycleClass gap, bool busy)
{
    // A traced run only sleeps when the skipped cycles continue the
    // state span just traced: a change would be a trace event.
    if (tracer() != nullptr && gap != lastClass_)
        return false;
    gapClass_ = gap;
    gapBusy_ = busy;
    return true;
}

void
TaskUnit::catchUp(Tick now)
{
    if (now > expectedNext_) {
        const std::uint64_t gap = now - expectedNext_;
        buckets_.account(gapClass_, gap);
        if (gapBusy_)
            busyCycles_ += gap;
        expectedNext_ = now;
    }
}

void
TaskUnit::step(Tick now)
{
    sendPending();

    if (phase_ != Phase::Idle)
        ++busyCycles_;

    switch (phase_) {
      case Phase::Idle:
        if (inbox_.empty()) {
            maybeProbeSteal();
            return;
        }
        cur_ = std::move(inbox_.front());
        inbox_.pop_front();
        startedAt_ = now;
        ++busyCycles_;
        if (auto* t = tracer()) {
            t->begin(t->track(name()),
                     registry_.type(cur_.type).name.c_str(),
                     trace::args("uid", cur_.uid, "workEst",
                                 cur_.workEst));
            t->counter(name().c_str(), "queueDepth",
                       static_cast<double>(queueDepth()));
        }
        phase_ = Phase::WaitFill;
        [[fallthrough]];

      case Phase::WaitFill:
        // Multicast lines and spatial done markers must have landed
        // before the inputs read the scratchpad copy or landing zone.
        for (const LandingGate& g : cur_.landings) {
            if (!ports_.landing->ready(g)) {
                ++waitFillCycles_;
                return;
            }
        }
        beginTask(now);
        return;

      case Phase::Config: {
        if (!ports_.fabric->ready(now)) {
            ++configWaitCycles_;
            return;
        }
        const TaskType& type = registry_.type(cur_.type);
        TS_ASSERT(cur_.inputs.size() == type.dfg->numInputs(),
                  name(), ": input count mismatch for ", type.name);
        TS_ASSERT(cur_.outputs.size() == type.dfg->numOutputs(),
                  name(), ": output count mismatch for ", type.name);
        TS_ASSERT(cur_.inputs.size() <= ports_.readEngines.size(),
                  name(), ": task needs more read engines");
        TS_ASSERT(cur_.outputs.size() <= ports_.writeEngines.size(),
                  name(), ": task needs more write engines");
        ports_.fabric->resetStreams();
        for (std::size_t i = 0; i < cur_.inputs.size(); ++i) {
            ports_.readEngines[i]->program(
                cur_.inputs[i],
                &ports_.fabric->inPort(
                    static_cast<std::uint32_t>(i)));
        }
        for (std::size_t o = 0; o < cur_.outputs.size(); ++o) {
            ports_.writeEngines[o]->program(
                cur_.outputs[o],
                &ports_.fabric->outPort(
                    static_cast<std::uint32_t>(o)));
        }
        phase_ = Phase::Running;
        return;
      }

      case Phase::Running:
        if (dfgExecutionDone())
            phase_ = Phase::Finish;
        return;

      case Phase::BuiltinRead: {
        for (std::size_t i = 0; i < cur_.inputs.size(); ++i) {
            if (ports_.readEngines[i]->active())
                return;
        }
        const TaskType& type = registry_.type(cur_.type);
        // Inputs staged: apply the functional effect and occupy the
        // fabric for the modeled compute time.
        // (The dispatch message carries resolved descriptors, but the
        // builtin body reads its own task description, so we pass a
        // reconstructed instance view.)
        TaskInstance view;
        view.uid = cur_.uid;
        view.type = cur_.type;
        view.inputs = cur_.inputs;
        view.outputs = cur_.outputs;
        type.builtin->apply(*ports_.image, view);
        if (type.builtin->spawn) {
            // Dynamic spawn: the body submits successors from the
            // lane.  The SpawnMsg shares the src->dst path with this
            // task's later CompleteMsg, so per-path FIFO ordering
            // guarantees the dispatcher integrates the spawn first.
            SpawnSet set;
            type.builtin->spawn(*ports_.image, view, set);
            if (!set.empty()) {
                std::uint32_t words = 2;
                for (const SpawnSet::Task& st : set.tasks) {
                    words += 2 + 2 * static_cast<std::uint32_t>(
                                         st.inputs.size() +
                                         st.outputs.size());
                }
                words += 2 * static_cast<std::uint32_t>(
                                 set.edges.size());
                queueMsg(PktKind::TaskSpawn,
                         SpawnMsg{cur_.uid, ports_.laneIndex,
                                  std::move(set)},
                         words);
            }
        }
        computeUntil_ = now + type.builtin->cycles(*ports_.image, view);
        builtinLinesLeft_ = divCeil<std::uint64_t>(
            type.builtin->outputWords(*ports_.image, view), lineWords);
        builtinWriteCursor_ =
            cur_.outputs.empty() ? 0 : lineAlign(cur_.outputs[0].base);
        builtinFwdWords_ = 0;
        phase_ = Phase::BuiltinCompute;
        return;
      }

      case Phase::BuiltinCompute:
        if (now < computeUntil_)
            return;
        phase_ = Phase::BuiltinWrite;
        [[fallthrough]];

      case Phase::BuiltinWrite: {
        // Builtin bodies stream outputs[0] only, line by line; its
        // write-back may be suppressed and its forwards are cut by the
        // write engine's rule (chunkWords, or stream end) into the
        // unit's send queue, whose FIFO order puts them ahead of our
        // CompleteMsg.
        const WriteDesc* out =
            cur_.outputs.empty() ? nullptr : &cur_.outputs[0];
        std::uint32_t budget = 2;
        while (budget > 0 && builtinLinesLeft_ > 0) {
            if (out != nullptr && !out->writeBack) {
                ++spatialLinesSuppressed_;
            } else if (!ports_.memPort->writeLine(
                           builtinWriteCursor_)) {
                builtinWriteBlocked_ = true;
                return;
            }
            builtinWriteBlocked_ = false;
            builtinWriteCursor_ += lineBytes;
            --builtinLinesLeft_;
            --budget;
            builtinFwdWords_ += lineWords;
            if (out != nullptr && builtinLinesLeft_ > 0 &&
                builtinFwdWords_ >= out->chunkWords) {
                cutBuiltinChunk(*out, false);
            }
        }
        if (builtinLinesLeft_ > 0)
            return;
        builtinWriteBlocked_ = false;
        // The stream end cuts the last chunk; a zero-output producer
        // (e.g. an internal sort that spawns its subtree) still owes
        // each forward its done marker.
        if (out != nullptr)
            cutBuiltinChunk(*out, true);
        phase_ = Phase::Finish;
        return;
      }

      case Phase::Finish:
        for (const LandingGate& g : cur_.landings) {
            if (g.release)
                ports_.landing->release(g.id);
        }
        queueMsg(PktKind::TaskComplete,
                 CompleteMsg{cur_.uid, ports_.laneIndex}, 1);
        ++tasksRun_;
        {
            TypeProbes& p = typeProbes(cur_.type);
            p.service.sample(static_cast<double>(now - startedAt_));
            p.latency.sample(static_cast<double>(now - cur_.dispatchedAt));
        }
        if (auto* t = tracer()) {
            t->end(t->track(name()));
            t->counter(name().c_str(), "queueDepth",
                       static_cast<double>(inbox_.size()));
        }
        phase_ = Phase::Idle;
        rearmSteal();
        return;
    }
}

bool
TaskUnit::busy() const
{
    return phase_ != Phase::Idle || !inbox_.empty() || !sendQ_.empty();
}

void
TaskUnit::reportStats(StatSet& stats) const
{
    stats.set(name() + ".tasksRun", static_cast<double>(tasksRun_));
    stats.set(name() + ".busyCycles",
              static_cast<double>(busyCycles_));
    stats.set(name() + ".waitFillCycles",
              static_cast<double>(waitFillCycles_));
    stats.set(name() + ".configWaitCycles",
              static_cast<double>(configWaitCycles_));
    if (ports_.steal != StealPolicy::None) {
        stats.set(name() + ".steal.requestsSent",
                  static_cast<double>(stealReqSent_));
        stats.set(name() + ".steal.requestsReceived",
                  static_cast<double>(stealReqRecv_));
        stats.set(name() + ".steal.grantsReceived",
                  static_cast<double>(stealGrants_));
        stats.set(name() + ".steal.deniesReceived",
                  static_cast<double>(stealDenies_));
        stats.set(name() + ".steal.tasksStolenIn",
                  static_cast<double>(tasksStolenIn_));
        stats.set(name() + ".steal.tasksGivenOut",
                  static_cast<double>(tasksGivenOut_));
        // Integer counts, so the run-wide sums do not depend on the
        // order the units report in.
        stats.add("delta.attrib.steal.requests",
                  static_cast<double>(stealReqSent_));
        stats.add("delta.attrib.steal.grants",
                  static_cast<double>(stealGrants_));
        stats.add("delta.attrib.steal.denies",
                  static_cast<double>(stealDenies_));
    }
    buckets_.report(stats, name());
}

} // namespace ts
