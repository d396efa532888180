/**
 * @file
 * Dynamic-spawn merge sort: a single root task recursively splits
 * itself from *inside* the accelerator.  Each internal sort task's
 * spawn hook submits its two half-range children plus the merge that
 * combines them, wires barrier edges child -> merge, and transfers
 * its own pending successors to the merge — so the parent's
 * dependence on "this range is sorted" re-hangs onto the subtree's
 * merge without the host ever seeing the tree.
 *
 * Structure exercised: the live dependence engine (DESIGN.md §7) —
 * TaskSpawn messages, edges to already-submitted tasks, and
 * successor transfer on early finish.  The statically-built msort
 * workload computes the same result from a host-built tree.
 */

#ifndef TS_WORKLOADS_MSORT_DYN_HH
#define TS_WORKLOADS_MSORT_DYN_HH

#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace ts
{

/** Dynamic merge-sort workload parameters. */
struct MsortDynParams
{
    std::uint64_t n = 8192;       ///< elements (power of two)
    std::uint64_t leafSize = 512; ///< largest range sorted in place
    std::uint64_t seed = 7;
};

/** Sort a vector of 64-bit integers via recursive dynamic spawns. */
class MsortDynWorkload : public Workload
{
  public:
    explicit MsortDynWorkload(const MsortDynParams& p) : p_(p) {}

    std::string name() const override { return "msort-dyn"; }
    void build(Delta& delta, TaskGraph& graph) override;
    bool check(const MemImage& img) const override;

  private:
    MsortDynParams p_;
    Addr finalAddr_ = 0;
    std::vector<std::int64_t> expected_;

    /** Captured by the spawn hook (the workload outlives the run). */
    TaskTypeId sortTy_ = 0;
    TaskTypeId mergeTy_ = 0;
};

} // namespace ts

#endif // TS_WORKLOADS_MSORT_DYN_HH
