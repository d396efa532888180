/**
 * @file
 * The memory-controller NoC node: unwraps MemReq packets into the
 * banked DRAM model and wraps serviced lines back into (possibly
 * multicast) MemResp packets.
 */

#ifndef TS_ACCEL_MEM_NODE_HH
#define TS_ACCEL_MEM_NODE_HH

#include <memory>

#include "mem/main_memory.hh"
#include "noc/noc.hh"

namespace ts
{

/** Adapter gluing MainMemory to the mesh. */
class MemNode : public Ticked
{
  public:
    MemNode(Simulator& sim, Noc& noc, std::uint32_t selfNode,
            const MainMemoryConfig& cfg);

    void tick(Tick now) override;
    bool busy() const override;
    void reportStats(StatSet& stats) const override;

    const MainMemory& memory() const { return *mem_; }

  private:
    Noc& noc_;
    std::uint32_t selfNode_;
    Channel<MemReq>* reqCh_;
    Channel<MemResp>* respCh_;
    std::unique_ptr<MainMemory> mem_;
};

} // namespace ts

#endif // TS_ACCEL_MEM_NODE_HH
