/**
 * @file
 * Stream descriptors: the task-argument annotation at the heart of
 * TaskStream.  A descriptor names a memory access pattern precisely
 * enough for the hardware to (a) estimate the work a task represents,
 * (b) forward a producer's output stream directly to a consumer
 * (pipelined inter-task dependences), and (c) recognize that many
 * tasks read the same range (shared-read multicast).
 */

#ifndef TS_STREAM_STREAM_DESC_HH
#define TS_STREAM_STREAM_DESC_HH

#include <cstdint>
#include <vector>

#include "cgra/token.hh"
#include "sim/types.hh"

namespace ts
{

class MemImage;
class Scratchpad;

/** Which storage a stream touches. */
enum class Space : std::uint8_t
{
    Dram, ///< global memory via the NoC and memory controller
    Spm,  ///< lane-local scratchpad (word offsets, 1-cycle access)
    Pipe, ///< inter-task forwarded chunks (no memory at all)
};

/** An input stream access pattern. */
struct StreamDesc
{
    enum class Kind : std::uint8_t
    {
        Linear,    ///< base + i*stride, i < count
        Strided2D, ///< outer x inner rows; segEnd per row
        Indirect,  ///< data[idx[i]] gathers
        Csr,       ///< ptr[]-delimited segments of data, direct
        CsrGather, ///< ptr[]-delimited segments of data[col[j]]
        CsrIndirectSeg, ///< segments selected by an id list:
                        ///< for v in list: data[ptr[v] .. ptr[v+1])
        PipeIn,    ///< tokens forwarded from a producer task
    };

    Kind kind = Kind::Linear;

    Space dataSpace = Space::Dram;
    Addr dataBase = 0;        ///< byte addr (Dram) / word offset (Spm)
    std::int64_t strideWords = 1; ///< element stride; gather scale

    Space idxSpace = Space::Dram;
    Addr idxBase = 0;         ///< index / column array

    Addr ptrBase = 0;         ///< CSR segment-pointer array

    std::uint64_t count = 0;  ///< elements (Linear/Indirect) or
                              ///< segments (Csr*)
    std::uint64_t innerLen = 0;       ///< Strided2D row length
    std::int64_t innerStrideWords = 1;
    std::int64_t outerStrideWords = 0;

    std::uint32_t repeat = 1;     ///< emit each element this many times
    std::uint64_t fixedSegLen = 0; ///< if set, segEnd every N elements
    std::uint64_t loops = 1;      ///< Linear: replay the whole
                                  ///< sequence; seg2End per replay
    std::uint32_t rowRepeat = 1;  ///< Strided2D: replay each row;
                                  ///< seg2End per row group

    std::uint64_t pipeId = 0;     ///< PipeIn channel identity

    /**
     * Spatial mapping: this input's range was forwarded lane-to-lane
     * into the consumer's scratchpad landing zone, so reads are
     * served at SPM speed without DRAM line requests.  Functional
     * data still comes from the global image (forwarding is
     * timing-only); set by the dispatcher under SchedPolicy::Spatial
     * for Linear stride-1 DRAM inputs only.
     */
    bool spatialLanding = false;

    // --- constructors -------------------------------------------------

    static StreamDesc linear(Space sp, Addr base, std::uint64_t n,
                             std::int64_t strideWords = 1);
    static StreamDesc strided2d(Space sp, Addr base,
                                std::uint64_t outerLen,
                                std::int64_t outerStrideWords,
                                std::uint64_t innerLen,
                                std::int64_t innerStrideWords = 1);
    static StreamDesc indirect(Space idxSp, Addr idxBase,
                               std::uint64_t n, Space dataSp,
                               Addr dataBase,
                               std::int64_t scaleWords = 1);
    static StreamDesc csr(Space sp, Addr ptrBase, std::uint64_t segs,
                          Addr dataBase);
    static StreamDesc csrGather(Space idxSp, Addr ptrBase, Addr colBase,
                                std::uint64_t segs, Space dataSp,
                                Addr dataBase,
                                std::int64_t scaleWords = 1);
    static StreamDesc csrIndirectSeg(Space idxSp, Addr listBase,
                                     std::uint64_t listLen,
                                     Addr ptrBase, Space dataSp,
                                     Addr dataBase);
    static StreamDesc pipeIn(std::uint64_t pipeId);

    // --- queries ------------------------------------------------------

    /**
     * Number of logical elements (before repeat), resolving CSR
     * lengths against the image.  Used for work estimation.
     */
    std::uint64_t elementCount(const MemImage& img) const;

    /**
     * The contiguous DRAM word range [begin, end) this stream reads,
     * if it is recognizable as one (Linear stride 1 in DRAM).  Used
     * for shared-read detection.  Returns false otherwise.
     */
    bool dramRange(Addr& beginByte, std::uint64_t& words) const;
};

/** One consumer landing an output stream is forwarded to. */
struct Forward
{
    std::uint64_t dstMask = 0; ///< NoC node(s) of the consumer lane(s)
    std::uint64_t landing = 0; ///< landingId(kind, key) there
};

/** An output stream destination. */
struct WriteDesc
{
    Space space = Space::Dram;
    Addr base = 0;               ///< byte addr (Dram) / word offset (Spm)
    std::int64_t strideWords = 1;

    /**
     * Copies of the stream sent lane-to-lane, cut into chunks of
     * chunkWords (the last one at stream end).  The landing kind
     * picks the packet: a pipe forward carries the tokens, a spatial
     * forward is timing-only and its last chunk carries the done
     * marker (stream/landing.hh).
     */
    std::vector<Forward> forwards;
    std::uint32_t chunkWords = 16; ///< forwarding granularity

    /**
     * DRAM write-back line traffic.  Spatial mapping clears it when
     * every consumer of the range receives the stream by forwarding;
     * the functional image is still updated (DESIGN.md §8 has the
     * fidelity contract).
     */
    bool writeBack = true;
};

/**
 * Golden expansion of an input stream into its full token sequence
 * (reference semantics; PipeIn not supported here).
 *
 * @param d the descriptor.
 * @param img the DRAM functional image.
 * @param spm lane scratchpad for Spm-space accesses (may be null if
 *            unused by the descriptor).
 */
std::vector<Token> expandStream(const StreamDesc& d, const MemImage& img,
                                const Scratchpad* spm);

} // namespace ts

#endif // TS_STREAM_STREAM_DESC_HH
