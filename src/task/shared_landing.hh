/**
 * @file
 * Per-lane tracking of shared-read group copies landed in the
 * scratchpad by multicast fills.
 *
 * Fills can race ahead of the group's setup message (they travel via
 * the memory controller while the setup goes straight to the lane),
 * so unknown-group fills are stashed and applied at registration.
 */

#ifndef TS_TASK_SHARED_LANDING_HH
#define TS_TASK_SHARED_LANDING_HH

#include <map>
#include <vector>

#include "mem/mem_image.hh"
#include "mem/scratchpad.hh"
#include "task/messages.hh"

namespace ts
{

/** Tracks shared-group landings in one lane's scratchpad. */
class SharedLanding
{
  public:
    SharedLanding(const MemImage& img, Scratchpad& spm)
        : img_(img), spm_(spm)
    {}

    /** Register a group (from the dispatcher's setup message). */
    void setup(const GroupSetupMsg& msg);

    /** Land one multicast line fill. */
    void fill(std::uint32_t group, Addr lineAddr);

    /** Whether the group is registered here. */
    bool known(std::uint32_t group) const
    {
        return groups_.count(group) != 0;
    }

    /** Whether every line of the group's range has landed. */
    bool complete(std::uint32_t group) const;

    /** Lines landed so far (traffic accounting). */
    std::uint64_t linesLanded() const { return linesLanded_; }

  private:
    struct G
    {
        Addr rangeBase = 0;
        std::uint64_t words = 0;
        std::uint64_t landing = 0;
        std::uint64_t linesExpected = 0;
        std::uint64_t linesArrived = 0;
    };

    void apply(G& g, Addr lineAddr);

    const MemImage& img_;
    Scratchpad& spm_;
    std::map<std::uint32_t, G> groups_;
    std::map<std::uint32_t, std::vector<Addr>> stash_;
    std::uint64_t linesLanded_ = 0;
};

} // namespace ts

#endif // TS_TASK_SHARED_LANDING_HH
