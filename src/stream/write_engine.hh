/**
 * @file
 * The write stream engine: drains a fabric output port into memory
 * (functional write + line-granular traffic) and forwards copies of
 * the stream as chunks to consumer lanes — the transmit half of
 * pipelined dependences and spatial forwarding.
 */

#ifndef TS_STREAM_WRITE_ENGINE_HH
#define TS_STREAM_WRITE_ENGINE_HH

#include <optional>

#include "mem/mem_image.hh"
#include "mem/scratchpad.hh"
#include "sim/simulator.hh"
#include "stream/lane_io.hh"
#include "stream/stream_desc.hh"

namespace ts
{

/** Write-engine tuning knobs. */
struct WriteEngineCfg
{
    std::uint32_t width = 2;          ///< tokens consumed per cycle
    /** Pending line writes, and pending forward chunks. */
    std::size_t writeQueueDepth = 8;
};

/** One output-stream engine. */
class WriteEngine : public Ticked
{
  public:
    WriteEngine(std::string name, MemImage& img, Scratchpad* spm,
                MemPortIf* mem, PipeTxIf* pipeTx,
                WriteEngineCfg cfg = {});

    /** Start draining @p src per @p d.  The engine registers to be
     *  woken by pushes into @p src, so it can sleep while it is empty. */
    void program(const WriteDesc& d, TokenFifo* src);

    /** Wake @p t whenever a tick changes one of this engine's
     *  cycle-accounting probes (active, blockedOnMem, blockedOnNoc). */
    void wakeOnProbeChange(Ticked* t) { probeWatcher_ = t; }

    /** Whether the programmed stream is still in flight. */
    bool active() const { return active_; }

    /** Cycle-accounting probe: line writes back-pressured. */
    bool blockedOnMem() const
    {
        return active_ && !pendingLines_.empty();
    }

    /** Cycle-accounting probe: forward chunk awaiting NoC injection. */
    bool blockedOnNoc() const { return active_ && !sendQ_.empty(); }

    void tick(Tick now) override;
    bool busy() const override { return active_; }
    void reportStats(StatSet& stats) const override;

    std::uint64_t tokensWritten() const { return tokensWritten_; }

    /** DRAM write-back lines suppressed (WriteDesc::writeBack off:
     *  every consumer receives the stream by spatial forwarding). */
    std::uint64_t linesSuppressed() const { return linesSuppressed_; }

    /** Spatial chunks injected toward consumer landing zones. */
    std::uint64_t spatialChunksSent() const
    {
        return spatialChunksSent_;
    }

  private:
    /** The accounting probes as bits, to spot a change across a tick. */
    unsigned probes() const
    {
        return unsigned{active_} | unsigned{blockedOnMem()} << 1 |
               unsigned{blockedOnNoc()} << 2;
    }

    /** Retry queued traffic, then move tokens from the source port;
     *  false while queued traffic is still back-pressured. */
    bool drain(Tick now);
    bool flushTraffic();
    void queueLine(Addr line);
    void cutChunk(bool done);

    MemImage& img_;
    Scratchpad* spm_;
    MemPortIf* mem_;
    PipeTxIf* pipeTx_;
    /** This tick's flush was refused by the port or transmitter. */
    bool refused_ = false;
    WriteEngineCfg cfg_;

    WriteDesc d_;
    TokenFifo* src_ = nullptr;
    bool active_ = false;
    bool sawStreamEnd_ = false;
    Ticked* probeWatcher_ = nullptr;

    std::uint64_t pos_ = 0; ///< elements written
    std::optional<Addr> curLine_;
    std::deque<Addr> pendingLines_;
    std::uint32_t fwdWords_ = 0; ///< words since the last cut
    std::vector<Token> chunk_;     ///< those words, if a pipe forwards
    bool pipeForward_ = false;     ///< some forward is a pipe
    std::deque<ForwardChunk> sendQ_;

    std::uint64_t tokensWritten_ = 0;
    std::uint64_t linesWritten_ = 0;
    std::uint64_t chunksSent_ = 0; ///< pipe chunks
    std::uint64_t linesSuppressed_ = 0;
    std::uint64_t spatialChunksSent_ = 0;
    std::uint64_t streamsRun_ = 0;
};

} // namespace ts

#endif // TS_STREAM_WRITE_ENGINE_HH
