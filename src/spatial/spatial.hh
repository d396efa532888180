/**
 * @file
 * Shared vocabulary of the ahead-of-time spatial mapper (DESIGN.md
 * §8): which producer/consumer edges are forwardable lane-to-lane
 * and how large a consumer's landing buffer must be.  Forwarded
 * chunks land in the consumer lane's landing table
 * (stream/landing.hh).
 *
 * Header-only on purpose: the AOT mapper and the dispatcher both
 * consume these rules, and keeping them in one place guarantees the
 * AOT plan and the runtime dispatch decisions agree.
 */

#ifndef TS_SPATIAL_SPATIAL_HH
#define TS_SPATIAL_SPATIAL_HH

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
 * DRAM write-back with no forward yet (pipe activation runs first, and
 * a piped output must not be claimed twice).
 */
inline bool
forwardableOutput(const WriteDesc& w)
{
    return w.space == Space::Dram && w.strideWords == 1 &&
           w.forwards.empty();
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
 *  (uid << 3) | port packing pipe ids use; @p consumer is its
 *  TaskId).  The lane's landing table keys it under
 *  LandingKind::Spatial. */
inline std::uint64_t
landingGroup(std::uint32_t consumer, std::uint8_t port)
{
    return (static_cast<std::uint64_t>(consumer) << 3) | port;
}

} // namespace spatial
} // namespace ts

#endif // TS_SPATIAL_SPATIAL_HH
