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
#include "stream/stream_desc.hh"

namespace ts
{

class Ticked;

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

    /**
     * Wake @p t once when a request this port refused may be taken:
     * a unit whose requestLine() or writeLine() failed sleeps on this
     * instead of retrying every cycle.  Spurious wakes are allowed.
     */
    virtual void armSpaceWake(Ticked* t) = 0;
};

/** One chunk of a forwarded output stream, bound for one forward. */
struct ForwardChunk
{
    Forward to;
    std::uint32_t words = 0; ///< payload words (0: a bare done marker)
    bool done = false;       ///< the producer's end of stream
    std::vector<Token> toks; ///< the payload (pipe forwards only)
};

/**
 * Transmit side of lane-to-lane forwarding.  A write engine cuts each
 * forwarded stream into chunks (WriteDesc::forwards) and queues one
 * chunk per forward; the lane turns each into one packet whose format
 * follows the landing kind (forwardPacket, stream/landing.hh).
 */
class PipeTxIf
{
  public:
    virtual ~PipeTxIf() = default;

    /**
     * Inject chunk @p c toward its consumer lane(s).
     * @return false when the network rejects the packet (retry).
     */
    virtual bool sendForward(const ForwardChunk& c) = 0;

    /** Wake @p t once when a chunk this transmitter refused may be
     *  taken, as MemPortIf::armSpaceWake does for requests. */
    virtual void armSpaceWake(Ticked* t) = 0;
};

} // namespace ts

#endif // TS_STREAM_LANE_IO_HH
