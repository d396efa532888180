/**
 * @file
 * Interfaces the stream engines use to reach lane-external resources
 * (global memory and the NoC).  Implemented by the lane adapter in
 * src/accel; abstract here so the stream library is testable in
 * isolation.
 */

#ifndef TS_STREAM_LANE_IO_HH
#define TS_STREAM_LANE_IO_HH

#include <cstdint>
#include <vector>

#include "cgra/token.hh"
#include "sim/types.hh"

namespace ts
{

/** Receiver of line-read completions. */
class LineSink
{
  public:
    virtual ~LineSink() = default;

    /**
     * A line requested through MemPortIf::requestLine arrived; its
     * data is now readable from the functional image.  Called exactly
     * once per accepted request, from the port's tick.
     * @param lineAddr the requested line.
     * @param cookie the value passed with the request, unchanged.
     */
    virtual void lineArrived(Addr lineAddr, std::uint64_t cookie) = 0;
};

/** Line-granular access to global memory. */
class MemPortIf
{
  public:
    virtual ~MemPortIf() = default;

    /**
     * Request a line read.
     * @param lineAddr line-aligned byte address.
     * @param sink notified when the line arrives; must outlive the
     *        request.
     * @param cookie opaque to the port, handed back to @p sink.
     * @return false when no request slot is available this cycle.
     */
    virtual bool requestLine(Addr lineAddr, LineSink& sink,
                             std::uint64_t cookie) = 0;

    /**
     * Issue a line write (functional data already applied).
     * @return false when the write path is back-pressured.
     */
    virtual bool writeLine(Addr lineAddr) = 0;
};

/** Transmit side of inter-task pipeline forwarding. */
class PipeTxIf
{
  public:
    virtual ~PipeTxIf() = default;

    /**
     * Forward a chunk of produced tokens to consumer lane(s).
     * @param dstMask NoC destination mask.
     * @param pipeId the dependence's pipe identity.
     * @param toks the chunk (order-preserving).
     * @return false when the network rejects the packet (retry).
     */
    virtual bool sendChunk(std::uint64_t dstMask, std::uint64_t pipeId,
                           const std::vector<Token>& toks) = 0;

    /**
     * Forward a spatially mapped chunk to a consumer lane's landing
     * zone (timing-only; the words are already in the functional
     * image).  Default accepts and drops the chunk so stream-layer
     * unit tests need no NoC.
     * @param dstNode consumer lane's NoC node.
     * @param group landing-group identity ((consumer uid << 3)|port).
     * @param words words in this chunk (0 for a pure done marker).
     * @param done producer's end-of-stream marker for the group.
     * @return false when the network rejects the packet (retry).
     */
    virtual bool sendSpatial(std::uint32_t dstNode,
                             std::uint64_t group, std::uint32_t words,
                             bool done)
    {
        (void)dstNode;
        (void)group;
        (void)words;
        (void)done;
        return true;
    }
};

} // namespace ts

#endif // TS_STREAM_LANE_IO_HH
