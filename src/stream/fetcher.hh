/**
 * @file
 * WordFetcher: an in-order word-fetch window used by the read engine
 * stages.  Addresses are pushed in stream order; the fetcher issues
 * line requests to DRAM (with same-line coalescing and a bounded
 * outstanding-request count) or port-arbitrated scratchpad reads, and
 * exposes values strictly in push order.
 */

#ifndef TS_STREAM_FETCHER_HH
#define TS_STREAM_FETCHER_HH

#include <cstdint>
#include <deque>
#include <set>

#include "cgra/token.hh"
#include "mem/mem_image.hh"
#include "mem/scratchpad.hh"
#include "stream/lane_io.hh"
#include "stream/stream_desc.hh"

namespace ts
{

/** WordFetcher tuning knobs. */
struct WordFetcherCfg
{
    std::uint32_t maxOutstanding = 4; ///< DRAM line requests
    std::size_t maxWindow = 24;       ///< buffered words
    std::uint32_t issuesPerCycle = 2;
};

/** In-order fetch window over one address space. */
class WordFetcher
{
  public:
    using Cfg = WordFetcherCfg;

    WordFetcher(const MemImage& img, Scratchpad* spm, MemPortIf* mem,
                Cfg cfg = Cfg())
        : img_(img), spm_(spm), mem_(mem), cfg_(cfg)
    {}

    /**
     * Begin a new stream in the given space; invalidates callbacks
     * from prior streams via a generation counter.  @p landing marks
     * a Dram stream whose range was spatially forwarded into the
     * lane's landing zone: words are served at SPM speed from the
     * functional image, without DRAM line requests (DESIGN.md §8).
     */
    void
    reset(Space space, bool landing = false)
    {
        TS_ASSERT(win_.empty() && outstanding_ == 0,
                  "fetcher reset while window live");
        TS_ASSERT(inflightLines_.empty());
        TS_ASSERT(!landing || space == Space::Dram,
                  "landing mode is for Dram streams");
        space_ = space;
        landing_ = landing;
        lastLandingLine_ = kNoLine;
        ++gen_;
    }

    bool windowFull() const { return win_.size() >= cfg_.maxWindow; }
    bool empty() const { return win_.empty(); }

    /** Empty AND no response callbacks still in flight. */
    bool settled() const { return win_.empty() && outstanding_ == 0; }

    /** Whether @p n more addresses fit in the window. */
    bool
    roomFor(std::size_t n) const
    {
        return win_.size() + n <= cfg_.maxWindow;
    }

    /** Queue an address (byte addr for Dram, word offset for Spm). */
    void
    push(Addr addr, std::uint8_t flags)
    {
        TS_ASSERT(!windowFull());
        // Ride along on an already-in-flight line request.
        const bool riding = space_ == Space::Dram &&
                            inflightLines_.count(lineAlign(addr)) != 0;
        win_.push_back(Slot{addr, flags,
                            riding ? St::Requested : St::NeedFetch, 0});
    }

    /** Issue fetches for queued addresses. */
    void pump(Tick now);

    bool
    headReady() const
    {
        return !win_.empty() && win_.front().st == St::Ready;
    }

    Token
    popHead()
    {
        TS_ASSERT(headReady());
        Token t{win_.front().val, win_.front().flags};
        win_.pop_front();
        return t;
    }

    /** DRAM line requests issued but not yet answered. */
    std::uint32_t outstanding() const { return outstanding_; }

    std::uint64_t linesRequested() const { return linesRequested_; }
    std::uint64_t spmReads() const { return spmReads_; }

    /** Words served from the spatial landing zone. */
    std::uint64_t landingWords() const { return landingWords_; }

    /** Distinct DRAM lines those words span — the line requests a
     *  non-forwarded run would have issued (attribution). */
    std::uint64_t landingLines() const { return landingLines_; }

  private:
    enum class St : std::uint8_t { NeedFetch, Requested, Ready };

    struct Slot
    {
        Addr addr;
        std::uint8_t flags;
        St st;
        Word val;
    };

    const MemImage& img_;
    Scratchpad* spm_;
    MemPortIf* mem_;
    Cfg cfg_;

    Space space_ = Space::Dram;
    std::deque<Slot> win_;
    std::set<Addr> inflightLines_;
    std::uint32_t outstanding_ = 0;
    std::uint64_t gen_ = 0;

    std::uint64_t linesRequested_ = 0;
    std::uint64_t spmReads_ = 0;

    static constexpr Addr kNoLine = static_cast<Addr>(-1);
    bool landing_ = false;
    Addr lastLandingLine_ = kNoLine;
    std::uint64_t landingWords_ = 0;
    std::uint64_t landingLines_ = 0;
};

} // namespace ts

#endif // TS_STREAM_FETCHER_HH
