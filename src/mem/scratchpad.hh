/**
 * @file
 * Per-lane scratchpad memory.
 *
 * Backs multicast-landed shared data and lane-private staging.  The
 * scratchpad is accessed by co-located engines in the same cycle via
 * a per-cycle port budget (tryAccess); data is lane-local and
 * functional storage lives inside the component.
 */

#ifndef TS_MEM_SCRATCHPAD_HH
#define TS_MEM_SCRATCHPAD_HH

#include <cstdint>
#include <vector>

#include "sim/simulator.hh"
#include "sim/types.hh"

namespace ts
{

/** Configuration for a lane scratchpad. */
struct ScratchpadConfig
{
    std::size_t sizeWords = 1u << 16;  ///< capacity (64 KiB words = 512 KiB)
    std::uint32_t portsPerCycle = 4;   ///< word accesses per cycle
};

/** Banked lane-local scratchpad with a per-cycle port budget. */
class Scratchpad : public Ticked
{
  public:
    Scratchpad(std::string name, const ScratchpadConfig& cfg);

    // Purely caller-driven (tryAccess keys its port budget on `now`),
    // so the scratchpad sleeps permanently after its first tick.
    void tick(Tick) override { sleepOnWake(); }
    bool busy() const override { return false; }
    void reportStats(StatSet& stats) const override;

    /**
     * Claim one access port for the current cycle.
     * @return false when all ports are already claimed this cycle.
     */
    bool tryAccess(Tick now);

    /** Functional word read at a word offset. */
    Word read(std::size_t wordOffset) const;

    /** Functional word write at a word offset. */
    void write(std::size_t wordOffset, Word value);

    /** Capacity in words. */
    std::size_t sizeWords() const { return data_.size(); }

    /**
     * Bump-allocate @p words words of scratchpad space; fatal on
     * exhaustion.  reset() recycles the whole allocation (between
     * tasks / shared-group lifetimes the accelerator manages space
     * explicitly).
     */
    std::size_t alloc(std::size_t words);

    /** Release all allocations (data is retained until overwritten). */
    void resetAlloc() { brk_ = 0; }

    /** Words currently allocated. */
    std::size_t allocated() const { return brk_; }

  private:
    ScratchpadConfig cfg_;
    std::vector<Word> data_;
    std::size_t brk_ = 0;

    Tick budgetCycle_ = ~Tick(0);
    std::uint32_t budgetLeft_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t portStalls_ = 0;
};

} // namespace ts

#endif // TS_MEM_SCRATCHPAD_HH
