/**
 * @file
 * One lane's landing table: every stream a producer lands in this
 * lane ahead of (or alongside) its consumer arrives here.
 *
 * Three kinds of arrival share one map, keyed by a 64-bit landing id
 * whose top bits name the kind, so the per-kind keys cannot collide:
 *   - Pipe: pipelined-dependence tokens, keyed by the producer's
 *     (uid << 3) | port.  The consumer's read engine pops them in
 *     order while the producer still runs (streaming).
 *   - Multicast: shared-read line fills, keyed by the group id and
 *     copied into the scratchpad at the group's landing offset.
 *     Fills travel via the memory controller while the group setup
 *     goes straight to the lane, so a fill can beat its setup; the
 *     entry holds such early lines until the setup lands them.
 *   - Spatial: timing-only forwarded chunks plus end-of-stream
 *     markers, keyed by the consumer's (uid << 3) | port (the words
 *     are already in the global memory image).
 *
 * A dispatch names its landings in one gate list (DispatchMsg::
 * landings): the task unit holds the consumer in WaitFill until each
 * gate's entry has @c need completion marks (landed lines, done
 * markers; 0 streams), and drops the entries flagged @c release when
 * the task completes.  Buffers are functionally unbounded; the pipe
 * high-water mark is reported so experiments can check what a
 * hardware buffer would need (DESIGN.md §4).
 */

#ifndef TS_STREAM_LANDING_HH
#define TS_STREAM_LANDING_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cgra/token.hh"
#include "mem/mem_image.hh"
#include "mem/scratchpad.hh"
#include "noc/packet.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"
#include "stream/lane_io.hh"

namespace ts
{

/** What a landing entry carries (the top bits of its id). */
enum class LandingKind : std::uint8_t
{
    Pipe = 1,
    Multicast = 2,
    Spatial = 3,
};

/** The table key of a kind's own @p key (which must fit 62 bits). */
constexpr std::uint64_t
landingId(LandingKind kind, std::uint64_t key)
{
    return (static_cast<std::uint64_t>(kind) << 62) | key;
}

/** The kind a landing id names. */
constexpr LandingKind
landingKind(std::uint64_t id)
{
    return static_cast<LandingKind>(id >> 62);
}

/** The kind's own key inside a landing id. */
constexpr std::uint64_t
landingKey(std::uint64_t id)
{
    return id & ((std::uint64_t{1} << 62) - 1);
}

/** "pipe 42", "spatial 7": a landing id for diagnostics. */
std::string landingName(std::uint64_t id);

/**
 * The packet that carries forwarded chunk @p c from node @p src.  The
 * landing kind picks the format: a pipe chunk carries its tokens, a
 * spatial chunk is timing-only (its words are already in the global
 * image).  Either way one header word precedes the payload.
 */
Packet forwardPacket(std::uint32_t src, const ForwardChunk& c);

/** One landing a dispatched task waits on and/or releases. */
struct LandingGate
{
    std::uint64_t id = 0;   ///< landingId(kind, key)
    std::uint64_t need = 0; ///< marks before start (0: streaming)
    bool release = false;   ///< drop the entry when the task completes
};

/** Per-lane table of landed forwarded streams. */
class Landing
{
  public:
    /** @p stats receives the spatial group peak samples (the lane
     *  passes its simulator's set). */
    Landing(const MemImage& img, Scratchpad& spm, StatSet& stats)
        : img_(img), spm_(spm),
          groupPeakWords_(stats, "spatial.groupPeakWords")
    {}

    // -- Arrivals (the lane's NoC adapter) --

    /** Tokens of pipe @p pipeId. */
    void pipeChunk(std::uint64_t pipeId, const std::vector<Token>& toks);

    /** Timing-only spatial chunk of @p words (0 for a bare marker);
     *  @p done marks one producer's end of stream. */
    void spatialChunk(std::uint64_t group, std::uint32_t words,
                      bool done);

    /** A shared-read group's scratchpad copy target. */
    void setup(const GroupSetupMsg& msg);

    /** One multicast line fill of @p group. */
    void fill(std::uint32_t group, Addr lineAddr);

    // -- Pipe consumption (the read engines) --

    /** Whether a token waits on pipe @p pipeId. */
    bool hasToken(std::uint64_t pipeId) const;

    /** Pop pipe @p pipeId's next token (panics if none). */
    Token popToken(std::uint64_t pipeId);

    // -- Gates (the task unit) --

    /** Whether @p gate's entry has every mark it needs. */
    bool ready(const LandingGate& gate) const;

    /** Drop entry @p id after its consumer completed (no-op if
     *  absent).  A pipe must be drained; a spatial entry samples its
     *  word count into the spatial.groupPeakWords probe. */
    void release(std::uint64_t id);

    /** The first pipe or spatial entry still held, if any: after a
     *  drained run every one of them has been released. */
    std::optional<std::uint64_t> firstLive() const;

    std::uint64_t spatialWordsReceived() const { return spatialWords_; }

    /** Report arrival statistics under @p prefix. */
    void reportStats(StatSet& stats, const std::string& prefix) const;

  private:
    struct Entry
    {
        std::uint64_t arrived = 0; ///< tokens, landed lines, or words
        std::uint64_t marks = 0;   ///< landed lines or done markers
        Ring<Token> toks;          ///< pipe FIFO
        std::optional<GroupSetupMsg> copy; ///< multicast SPM target
        std::vector<Addr> early;   ///< multicast fills before setup
    };

    void land(Entry& e, Addr lineAddr);

    const MemImage& img_;
    Scratchpad& spm_;
    std::map<std::uint64_t, Entry> entries_;

    std::uint64_t pipeTokens_ = 0;
    std::uint64_t pipeBuffered_ = 0; ///< across all pipes
    std::uint64_t pipeMaxOcc_ = 0;
    std::uint64_t fillLines_ = 0;
    std::uint64_t spatialChunks_ = 0;
    std::uint64_t spatialWords_ = 0;
    StatProbe groupPeakWords_;
};

} // namespace ts

#endif // TS_STREAM_LANDING_HH
