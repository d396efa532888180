/**
 * @file
 * One Delta lane: a reconfigurable dataflow fabric, stream engines, a
 * scratchpad, the landing table, a task unit, and the NoC adapter that
 * stitches them to the mesh (memory port, pipe transmit, message
 * demultiplexing).
 */

#ifndef TS_ACCEL_LANE_HH
#define TS_ACCEL_LANE_HH

#include <memory>

#include "cgra/fabric.hh"
#include "mem/scratchpad.hh"
#include "noc/noc.hh"
#include "stream/read_engine.hh"
#include "stream/write_engine.hh"
#include "task/task_unit.hh"

namespace ts
{

/** Per-lane configuration. */
struct LaneConfig
{
    std::uint32_t numReadEngines = 4;
    std::uint32_t numWriteEngines = 2;
    std::uint32_t maxOutstandingLines = 16; ///< memory-port MSHRs
    FabricConfig fabric;
    ScratchpadConfig spm;
    ReadEngineCfg read;
    WriteEngineCfg write;
};

/** A lane and its NoC adapter. */
class Lane : public Ticked, public MemPortIf, public PipeTxIf
{
  public:
    /** @p laneNodes maps every lane index to its NoC node (for the
     *  @p steal victim probe order); empty disables stealing here. */
    Lane(Simulator& sim, Noc& noc, MemImage& img,
         const TaskTypeRegistry& registry, std::uint32_t laneIndex,
         std::uint32_t selfNode, std::uint32_t dispatcherNode,
         std::uint32_t memNode, const LaneConfig& cfg,
         const std::vector<std::uint32_t>& laneNodes = {},
         StealPolicy steal = StealPolicy::None);

    // MemPortIf
    bool requestLine(Addr lineAddr, LineSink& sink,
                     std::uint64_t cookie) override;
    bool writeLine(Addr lineAddr) override;

    // PipeTxIf
    bool sendForward(const ForwardChunk& c) override;

    // MemPortIf and PipeTxIf: every refusal is a full injection queue
    // or, for requestLine, a full MSHR table.
    /** Arms the injection queue and the next MSHR free. */
    void armSpaceWake(Ticked* t) override;

    void tick(Tick now) override;
    bool busy() const override;
    void reportStats(StatSet& stats) const override;

    TaskUnit& taskUnit() { return *taskUnit_; }
    const TaskUnit& taskUnit() const { return *taskUnit_; }
    Fabric& fabric() { return *fabric_; }
    Scratchpad& scratchpad() { return *spm_; }
    /** Pipe, multicast and spatial arrivals at this lane. */
    const Landing& landing() const { return *landing_; }

    // -- Spatial-mapping attribution (receiver-side accounting, so
    //    write-engine and builtin senders are covered uniformly) --

    /** Σ hops × packet words over spatial chunks ejected here. */
    std::uint64_t spatialHopWords() const { return spatialHopWords_; }

    /** DRAM write-back lines this lane suppressed (write engines +
     *  builtin path). */
    std::uint64_t spatialLinesSuppressed() const;

    /** DRAM line fetches avoided by landing-zone reads here. */
    std::uint64_t spatialLandingLines() const;

    /** Spatial chunks this lane's producers sent. */
    std::uint64_t spatialChunksSent() const;

  private:
    Noc& noc_;
    std::uint32_t selfNode_;
    std::uint32_t memNode_;
    LaneConfig cfg_;

    std::unique_ptr<Fabric> fabric_;
    std::unique_ptr<Scratchpad> spm_;
    std::unique_ptr<Landing> landing_;
    std::vector<std::unique_ptr<ReadEngine>> readEngines_;
    std::vector<std::unique_ptr<WriteEngine>> writeEngines_;
    std::unique_ptr<TaskUnit> taskUnit_;

    /** One outstanding line read; its index is the request tag. */
    struct Mshr
    {
        LineSink* sink = nullptr; ///< nullptr while the slot is free
        std::uint64_t cookie = 0;
    };

    /** maxOutstandingLines slots; freeMshrs_ holds the idle ones. */
    std::vector<Mshr> mshrs_;
    std::vector<std::uint32_t> freeMshrs_;
    /** Units woken (once) when the next MSHR frees. */
    std::vector<Ticked*> mshrWaiters_;

    std::size_t
    mshrsInUse() const
    {
        return mshrs_.size() - freeMshrs_.size();
    }

    std::uint64_t lineReads_ = 0;
    std::uint64_t lineWrites_ = 0;
    std::uint64_t chunksSent_ = 0;

    std::uint64_t spatialHopWords_ = 0;
};

} // namespace ts

#endif // TS_ACCEL_LANE_HH
