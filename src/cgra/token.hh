/**
 * @file
 * Tokens flowing through the dataflow fabric.
 *
 * A token is a 64-bit word plus control flags.  Streams are
 * segmented: kSegEnd marks the final element of a segment (e.g. the
 * last nonzero of a sparse-matrix row), and kStreamEnd marks the
 * final element of the whole stream (it implies the end of the final
 * segment).  Stateful fabric ops (accumulators, mergers) key off
 * these flags.
 */

#ifndef TS_CGRA_TOKEN_HH
#define TS_CGRA_TOKEN_HH

#include <cstdint>

#include "sim/ring.hh"
#include "sim/simulator.hh"
#include "sim/types.hh"

namespace ts
{

/** Control flags carried alongside each value. */
enum TokenFlags : std::uint8_t
{
    kSegEnd = 1u << 0,    ///< last element of a level-1 segment
    kStreamEnd = 1u << 1, ///< last element of the stream
    kSeg2End = 1u << 2,   ///< last element of a level-2 segment
};

/**
 * One value in flight through the fabric.
 *
 * Streams may be segmented at two nesting levels (e.g. dimensions
 * within a point, points within a block).  Accumulators consume
 * level-1 boundaries and demote level-2 boundaries to level-1 on
 * their outputs, so reductions compose hierarchically.
 */
struct Token
{
    Word value = 0;
    std::uint8_t flags = 0;

    bool segEnd() const { return flags & (kSegEnd | kStreamEnd); }
    bool seg2End() const { return flags & (kSeg2End | kStreamEnd); }
    bool streamEnd() const { return flags & kStreamEnd; }

    /** Accumulator output flags: demote level-2 to level-1. */
    static std::uint8_t
    demote(std::uint8_t flags)
    {
        std::uint8_t out = flags & kStreamEnd;
        if (flags & (kSeg2End | kStreamEnd))
            out |= kSegEnd;
        return out;
    }

    bool
    operator==(const Token& o) const
    {
        return value == o.value && flags == o.flags;
    }
};

/**
 * A bounded FIFO of tokens (external fabric port buffers).  It has no
 * channel hooks, so it wakes its two ends itself: a push wakes the
 * consumer and a pop wakes the producer, each registered by the
 * component at that end (DESIGN.md §6, lane units).
 */
class TokenFifo
{
  public:
    explicit TokenFifo(std::size_t capacity) : capacity_(capacity) {}

    bool full() const { return capacity_ != 0 && q_.size() >= capacity_; }
    bool empty() const { return q_.empty(); }
    std::size_t size() const { return q_.size(); }

    bool
    push(Token t)
    {
        if (full())
            return false;
        q_.push_back(t);
        if (consumer_ != nullptr)
            consumer_->requestWake();
        return true;
    }

    const Token& front() const { return q_.front(); }

    Token
    pop()
    {
        if (producer_ != nullptr)
            producer_->requestWake();
        return q_.pop();
    }

    void clear() { q_.clear(); }

    /** Wake @p t on every push (the component that pops). */
    void wakeOnPush(Ticked* t) { consumer_ = t; }

    /** Wake @p t on every pop (the component that pushes). */
    void wakeOnPop(Ticked* t) { producer_ = t; }

  private:
    std::size_t capacity_;
    Ring<Token> q_;
    Ticked* consumer_ = nullptr;
    Ticked* producer_ = nullptr;
};

} // namespace ts

#endif // TS_CGRA_TOKEN_HH
