/**
 * @file
 * The read stream engine: turns a StreamDesc into a timed sequence of
 * memory traffic and a token stream delivered into a fabric input
 * port.
 *
 * Internally a three-stage pipeline of fetch windows:
 *   ptr stage  (CSR segment pointers)
 *   idx stage  (indirect indices / CSR column ids)
 *   data stage (the actual values)
 * plus a delivery stage applying element repetition and port
 * back-pressure.  Each stage only advances when its downstream has
 * space, so memory-level parallelism is bounded and realistic.
 */

#ifndef TS_STREAM_READ_ENGINE_HH
#define TS_STREAM_READ_ENGINE_HH

#include "sim/simulator.hh"
#include "stream/fetcher.hh"
#include "stream/landing.hh"

namespace ts
{

/** Read-engine tuning knobs. */
struct ReadEngineCfg
{
    std::uint32_t deliverWidth = 2; ///< tokens to the port per cycle
    std::uint32_t genPerCycle = 4;  ///< addresses generated per cycle
    WordFetcher::Cfg fetcher;
};

/** One input-stream engine (a lane owns several). */
class ReadEngine : public Ticked
{
  public:
    ReadEngine(std::string name, const MemImage& img, Scratchpad* spm,
               MemPortIf* mem, Landing* landing,
               ReadEngineCfg cfg = {});

    /**
     * Start streaming @p d into @p dest.  @p dest may be null to
     * model traffic without delivering tokens (builtin-kernel input
     * staging).  The engine registers to be woken by pops from
     * @p dest, so it can sleep while the port is full.
     */
    void program(const StreamDesc& d, TokenFifo* dest);

    /** Wake @p t whenever a tick changes one of this engine's
     *  cycle-accounting probes (active, waitingOnMem, waitingOnPipe). */
    void wakeOnProbeChange(Ticked* t) { probeWatcher_ = t; }

    /** Whether a programmed stream is still in flight. */
    bool active() const { return active_; }

    /** Cycle-accounting probe: stream blocked on DRAM fetches. */
    bool waitingOnMem() const;

    /** Cycle-accounting probe: pipe-input stream starved of chunks
     *  from the producer lane (data still crossing the NoC). */
    bool waitingOnPipe() const;

    void tick(Tick now) override;
    bool busy() const override { return active_; }
    void reportStats(StatSet& stats) const override;

    std::uint64_t tokensDelivered() const { return tokensDelivered_; }
    std::uint64_t linesRequested() const;

    /** DRAM line fetches avoided by landing-zone reads (spatial
     *  mapping attribution). */
    std::uint64_t
    landingLinesAvoided() const
    {
        return dataF_.landingLines();
    }

  private:
    /** The accounting probes as bits, to spot a change across a tick. */
    unsigned probes() const
    {
        return unsigned{active_} | unsigned{waitingOnMem()} << 1 |
               unsigned{waitingOnPipe()} << 2;
    }

    /** Whether @p f could issue a request on a later tick without
     *  a wake: it has one to issue and the port did not refuse it. */
    static bool
    issuable(const WordFetcher& f)
    {
        return f.canIssue() && !f.portRefused();
    }

    void generate(Tick now);
    void deliver();
    bool generationDone() const;
    void pumpCsrPointers();
    void pumpIndirectSegPointers();
    void generateSegments();

    Addr elemAddr(Space sp, Addr base, std::int64_t elemWords) const;

    const MemImage& img_;
    Scratchpad* spm_;
    MemPortIf* mem_;
    Landing* landing_; ///< pipe tokens (PipeIn streams)
    ReadEngineCfg cfg_;

    StreamDesc d_;
    TokenFifo* dest_ = nullptr;
    bool active_ = false;
    Ticked* probeWatcher_ = nullptr;

    // Generator state.
    std::uint64_t genPos_ = 0;   ///< data elements addressed
    std::uint64_t loop_ = 0;     ///< Linear replay cursor
    std::uint64_t outer_ = 0, inner_ = 0; ///< Strided2D cursors
    std::uint32_t rep2_ = 0;     ///< Strided2D row-repeat cursor
    std::uint64_t idxGenPos_ = 0;
    std::uint64_t ptrGenPos_ = 0;
    bool havePrevPtr_ = false;
    std::int64_t prevPtr_ = 0;
    bool haveLo_ = false;        ///< CsrIndirectSeg pair state
    std::int64_t loVal_ = 0;
    std::uint64_t segIdx_ = 0;
    std::uint64_t segRemaining_ = 0;
    std::int64_t segCursor_ = 0;

    // Delivery state.
    std::uint32_t repeatLeft_ = 0;
    Token repeatTok_;
    bool sawStreamEnd_ = false;

    WordFetcher ptrF_, idxF_, dataF_;

    std::uint64_t tokensDelivered_ = 0;
    std::uint64_t streamsRun_ = 0;
};

} // namespace ts

#endif // TS_STREAM_READ_ENGINE_HH
