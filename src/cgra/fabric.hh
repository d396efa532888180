/**
 * @file
 * Cycle-level execution of a mapped DFG on the CGRA grid.
 *
 * Each configured DFG node becomes a processing element with small
 * operand FIFOs and a pipelined functional unit; each mapped edge
 * becomes a chain of single-token link registers, one per physical
 * hop, advancing at most one hop per cycle.  Back-pressure is exact:
 * a PE fires only when every operand is present and its pipeline has
 * space, and results leave the pipeline only when every fan-out
 * route's first register is free.
 *
 * The fabric therefore reproduces, cycle by cycle, the throughput
 * effects the paper's dataflow substrate exhibits: initiation
 * interval 1 on clean pipelines, stalls under port back-pressure,
 * and data-dependent rates through merge/intersect units.
 */

#ifndef TS_CGRA_FABRIC_HH
#define TS_CGRA_FABRIC_HH

#include <optional>
#include <vector>

#include "cgra/mapping.hh"
#include "cgra/token.hh"
#include "sim/simulator.hh"

namespace ts
{

/** Fabric timing/sizing parameters. */
struct FabricConfig
{
    FabricGeometry geom;
    std::size_t portFifoDepth = 16;    ///< external port buffers
    std::size_t operandFifoDepth = 4; ///< per-PE operand FIFOs
    Tick configBaseCycles = 16;       ///< fixed reconfiguration cost
    Tick configPerNodeCycles = 4;     ///< per-node reconfiguration cost
};

/** One lane's reconfigurable dataflow fabric. */
class Fabric : public Ticked
{
  public:
    Fabric(std::string name, const FabricConfig& cfg);

    /**
     * Begin executing under a new configuration.  Reconfiguration
     * costs configBase + perNode * numNodes cycles unless @p m is
     * already loaded (cost 0).  Any in-flight state must be drained
     * first (checked).
     */
    void configure(const MappedDfg* m, Tick now);

    /** Whether the configuration is loaded and the fabric can run. */
    bool ready(Tick now) const { return now >= configReadyAt_; }

    /** Currently loaded configuration (nullptr before first use). */
    const MappedDfg* current() const { return current_; }

    /** External input port FIFO (stream engines push here). */
    TokenFifo& inPort(std::uint32_t port);

    /** External output port FIFO (stream engines pop here). */
    TokenFifo& outPort(std::uint32_t port);

    /** True when no token is anywhere inside the fabric: no internal
     *  token (counted at every push and pop) and every external port
     *  FIFO empty. */
    bool drained() const;

    /**
     * Reset stateful PE context (accumulators, merge end flags)
     * between back-to-back task executions under the same
     * configuration.  Requires drained().
     */
    void resetStreams();

    void tick(Tick now) override;
    bool busy() const override;
    void reportStats(StatSet& stats) const override;

    /** Total PE firings (utilization metric). */
    std::uint64_t firings() const { return firings_; }

    /** Number of reconfigurations performed. */
    std::uint64_t reconfigs() const { return reconfigs_; }

    /** Cycles spent reconfiguring. */
    std::uint64_t configCycles() const { return configCycles_; }

  private:
    struct RouteState
    {
        std::uint32_t dstNode = 0;
        std::uint8_t slot = 0;
        std::vector<std::optional<Token>> regs;
    };

    struct PeState
    {
        std::uint32_t id = 0;
        const Dfg::Node* node = nullptr;
        Ring<Token> opnd[3];
        /** (token, readyAt): pipelined FU in flight. */
        Ring<std::pair<Token, Tick>> pipe;
        std::vector<std::uint32_t> outRoutes;
        TokenFifo* ext = nullptr;

        // Accumulator state.
        Word acc = 0;

        // Merge/intersect state.
        bool endedA = false, endedB = false;
        bool segDoneA = false, segDoneB = false;
        bool streamEndA = false, streamEndB = false;
        std::int64_t count = 0;
    };

    void advanceRoutes();
    void outputStage(Tick now);
    void fireStage(Tick now);
    void firePe(PeState& pe, Tick now);
    bool pendingEmit() const;
    bool pipeHasSpace(const PeState& pe) const;
    void pushResult(PeState& pe, Token t, Tick now);
    Token takeOperand(PeState& pe, unsigned slot);

    FabricConfig cfg_;
    const MappedDfg* current_ = nullptr;
    Tick configReadyAt_ = 0;

    std::vector<RouteState> routes_;
    std::vector<PeState> pes_;
    std::vector<TokenFifo> inExt_;
    std::vector<TokenFifo> outExt_;

    /** Tokens in route registers, operand FIFOs and FU pipes. */
    std::size_t inFlight_ = 0;

    std::uint64_t firings_ = 0;
    std::uint64_t reconfigs_ = 0;
    std::uint64_t configCycles_ = 0;
    std::uint64_t activeCycles_ = 0;
};

} // namespace ts

#endif // TS_CGRA_FABRIC_HH
