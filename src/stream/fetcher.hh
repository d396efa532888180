/**
 * @file
 * WordFetcher: an in-order word-fetch window used by the read engine
 * stages.  Addresses are pushed in stream order; the fetcher issues
 * line requests to DRAM (with same-line coalescing and a bounded
 * outstanding-request count) or port-arbitrated scratchpad reads, and
 * exposes values strictly in push order.
 *
 * pump() runs every cycle a read engine is awake, so it keeps the
 * number of slots still needing a fetch and returns at once when
 * there is none; in-flight lines sit in a vector bounded by
 * maxOutstanding, each with the number of window words riding on it,
 * and the window is a ring that stops allocating once warm.
 */

#ifndef TS_STREAM_FETCHER_HH
#define TS_STREAM_FETCHER_HH

#include <cstdint>
#include <vector>

#include "cgra/token.hh"
#include "mem/mem_image.hh"
#include "mem/scratchpad.hh"
#include "sim/ring.hh"
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
class WordFetcher : public LineSink
{
  public:
    using Cfg = WordFetcherCfg;

    WordFetcher(const MemImage& img, Scratchpad* spm, MemPortIf* mem,
                Cfg cfg = Cfg())
        : img_(img), spm_(spm), mem_(mem), cfg_(cfg)
    {
        inflight_.reserve(cfg_.maxOutstanding);
    }

    /**
     * Begin a new stream in the given space.  Line requests carry a
     * generation counter as their cookie, so a response can be
     * checked against the stream that issued it.  @p landing marks
     * a Dram stream whose range was spatially forwarded into the
     * lane's landing zone: words are served at SPM speed from the
     * functional image, without DRAM line requests (DESIGN.md §8).
     */
    void
    reset(Space space, bool landing = false)
    {
        TS_ASSERT(win_.empty() && inflight_.empty(),
                  "fetcher reset while window live");
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
    bool settled() const { return win_.empty() && inflight_.empty(); }

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
        St st = St::NeedFetch;
        if (space_ == Space::Dram) {
            if (Inflight* f = findInflight(lineAlign(addr))) {
                ++f->words;
                st = St::Requested;
            }
        }
        if (st == St::NeedFetch)
            ++needFetch_;
        win_.push_back(Slot{addr, flags, st, 0});
        ++moves_;
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
        const Slot& s = win_.front();
        Token t{s.val, s.flags};
        win_.pop_front();
        ++moves_;
        return t;
    }

    /** Pushes plus pops so far: a caller that sees no change across
     *  its own tick knows the window's occupancy and head are as it
     *  found them. */
    std::uint64_t moves() const { return moves_; }

    /** Whether pump() has something it may issue now.  False means
     *  only a line arrival can change the window. */
    bool
    canIssue() const
    {
        if (needFetch_ == 0)
            return false;
        return space_ != Space::Dram || landing_ ||
               inflight_.size() < cfg_.maxOutstanding;
    }

    /** Wake @p t whenever a requested line arrives. */
    void wakeOnArrival(Ticked* t) { arrivalWake_ = t; }

    /** DRAM line requests issued but not yet answered. */
    std::uint32_t
    outstanding() const
    {
        return static_cast<std::uint32_t>(inflight_.size());
    }

    /** A requested line arrived: its riding words become Ready. */
    void lineArrived(Addr line, std::uint64_t cookie) override;

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

    /** A line request in flight and the window words waiting on it. */
    struct Inflight
    {
        Addr line;
        std::uint32_t words;
    };

    Inflight*
    findInflight(Addr line)
    {
        for (Inflight& f : inflight_) {
            if (f.line == line)
                return &f;
        }
        return nullptr;
    }

    const MemImage& img_;
    Scratchpad* spm_;
    MemPortIf* mem_;
    Cfg cfg_;

    Space space_ = Space::Dram;
    Ring<Slot> win_;
    std::uint32_t needFetch_ = 0; ///< slots in St::NeedFetch
    std::vector<Inflight> inflight_; ///< at most maxOutstanding
    std::uint64_t gen_ = 0;
    std::uint64_t moves_ = 0;
    Ticked* arrivalWake_ = nullptr;

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
