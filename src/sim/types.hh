/**
 * @file
 * Fundamental scalar types shared by every subsystem of the Delta /
 * TaskStream simulator.
 */

#ifndef TS_SIM_TYPES_HH
#define TS_SIM_TYPES_HH

#include <cstdint>
#include <cstring>

namespace ts
{

/** Simulated time, measured in accelerator clock cycles. */
using Tick = std::uint64_t;

/** A byte address in the simulated physical address space. */
using Addr = std::uint64_t;

/**
 * The machine word moved by streams and computed on by the fabric.
 *
 * All datapaths are 64 bits wide; a Word is reinterpreted as a signed
 * integer or an IEEE double depending on the opcode consuming it.
 */
using Word = std::uint64_t;

/** Identity of a task instance (dense, assigned by the task graph). */
using TaskId = std::uint32_t;

/** Number of bytes in a Word. */
constexpr unsigned wordBytes = 8;

/** Number of Words in a DRAM line (64-byte lines). */
constexpr unsigned lineWords = 8;

/** Number of bytes in a DRAM line. */
constexpr unsigned lineBytes = lineWords * wordBytes;

/** Reinterpret a Word as a signed 64-bit integer. */
inline std::int64_t
asInt(Word w)
{
    std::int64_t v;
    std::memcpy(&v, &w, sizeof(v));
    return v;
}

/** Reinterpret a signed 64-bit integer as a Word. */
inline Word
fromInt(std::int64_t v)
{
    Word w;
    std::memcpy(&w, &v, sizeof(w));
    return w;
}

/** Reinterpret a Word as an IEEE double. */
inline double
asDouble(Word w)
{
    double v;
    std::memcpy(&v, &w, sizeof(v));
    return v;
}

/** Reinterpret an IEEE double as a Word. */
inline Word
fromDouble(double v)
{
    Word w;
    std::memcpy(&w, &v, sizeof(w));
    return w;
}

/** Round an address down to its containing line. */
inline Addr
lineAlign(Addr a)
{
    return a & ~static_cast<Addr>(lineBytes - 1);
}

/** Integer ceiling division. */
template <typename T>
constexpr T
divCeil(T a, T b)
{
    return (a + b - 1) / b;
}

} // namespace ts

#endif // TS_SIM_TYPES_HH
