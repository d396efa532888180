/**
 * @file
 * Shared vocabulary of the ahead-of-time spatial mapper (DESIGN.md
 * §8): which producer/consumer edges are forwardable lane-to-lane,
 * how large a consumer's landing buffer must be, and the lane-side
 * landing tracker that gates consumers on forwarded-stream arrival.
 *
 * Header-only on purpose: the dispatcher (ts_task) and the lanes
 * (ts_accel) both consume these rules, and keeping them in one place
 * guarantees the AOT plan and the runtime dispatch decisions agree.
 */

#ifndef TS_SPATIAL_SPATIAL_HH
#define TS_SPATIAL_SPATIAL_HH

#include <map>

#include "sim/stats.hh"
#include "sim/types.hh"
#include "stream/stream_desc.hh"

namespace ts
{
namespace spatial
{

/**
 * Whether a consumer input port can be served from a spatial landing
 * zone: a Linear stride-1 DRAM read of a statically known extent.
 * Everything else (gathers, CSR segments, pipes, scratchpad reads)
 * keeps its normal path.
 */
inline bool
landingEligibleInput(const StreamDesc& d)
{
    return d.kind == StreamDesc::Kind::Linear &&
           d.dataSpace == Space::Dram && d.strideWords == 1 &&
           d.repeat == 1 && d.loops == 1 && d.count > 0;
}

/**
 * Whether a producer output port can be forwarded: a dense stride-1
 * DRAM write-back not already claimed by pipeline forwarding.
 */
inline bool
forwardableOutput(const WriteDesc& w)
{
    return w.space == Space::Dram && w.toMemory &&
           w.strideWords == 1 && w.pipeDstMask == 0;
}

/** Whether @p w writes into the range @p in reads (base containment
 *  — the producer's extent is unknown ahead of time, so the match is
 *  by the write cursor's starting point). */
inline bool
outputFeedsInput(const WriteDesc& w, const StreamDesc& in)
{
    return w.base >= in.dataBase &&
           w.base < in.dataBase + in.count * wordBytes;
}

/** Landing-buffer words a forwarded consumer port occupies: the full
 *  port extent, rounded up to whole lines (barrier-semantics
 *  forwarding buffers the producer's complete output). */
inline std::uint64_t
landingBufWords(const StreamDesc& in)
{
    return divCeil(in.count, std::uint64_t{lineWords}) * lineWords;
}

/** The landing-group identity of a consumer input port (the same
 *  (uid << 3) | port packing the pipe machinery uses; @p consumer is
 *  its TaskId). */
inline std::uint64_t
landingGroup(std::uint32_t consumer, std::uint8_t port)
{
    return (static_cast<std::uint64_t>(consumer) << 3) | port;
}

/**
 * Lane-side tracker of spatially forwarded streams.  Producers send
 * timing-only chunks (the functional words are already in the global
 * memory image); the tracker counts arrived words and end-of-stream
 * markers per landing group, and the task unit holds a gated consumer
 * in WaitFill until every forwarding producer's done marker is in.
 */
class LandingTracker
{
  public:
    void
    deliver(std::uint64_t group, std::uint32_t words, bool done)
    {
        Group& g = groups_[group];
        g.words += words;
        if (g.words > g.peakWords)
            g.peakWords = g.words;
        if (done)
            ++g.dones;
        ++chunks_;
        words_ += words;
    }

    /** Whether @p needDones forwarding producers have finished
     *  streaming into @p group. */
    bool
    complete(std::uint64_t group, std::uint32_t needDones) const
    {
        if (needDones == 0)
            return true;
        const auto it = groups_.find(group);
        return it != groups_.end() && it->second.dones >= needDones;
    }

    /** Consumer finished: sample the group's occupancy high-water
     *  mark into the run stats and free the tracking slot. */
    void
    release(std::uint64_t group)
    {
        const auto it = groups_.find(group);
        if (it == groups_.end())
            return;
        peakWords_.sample(static_cast<double>(it->second.peakWords));
        groups_.erase(it);
    }

    std::uint64_t chunksReceived() const { return chunks_; }
    std::uint64_t wordsReceived() const { return words_; }

  private:
    struct Group
    {
        std::uint64_t words = 0;
        std::uint32_t dones = 0;
        std::uint64_t peakWords = 0;
    };

    std::map<std::uint64_t, Group> groups_;
    std::uint64_t chunks_ = 0;
    std::uint64_t words_ = 0;
    StatProbe peakWords_{"spatial.groupPeakWords"};
};

} // namespace spatial
} // namespace ts

#endif // TS_SPATIAL_SPATIAL_HH
