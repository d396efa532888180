#include "accel/area_model.hh"

namespace ts
{

namespace
{

// Generic 28nm-class area constants (documented substitution for RTL
// synthesis; only the ratios matter for the reproduction).
constexpr double kSramMm2PerKB = 0.0007;  ///< dense SRAM macro
constexpr double kRegMm2PerKB = 0.004;    ///< flop-based storage
constexpr double kFuMm2 = 0.0012;         ///< one 64-bit FU tile
constexpr double kSwitchMm2 = 0.0004;     ///< CGRA routing per tile
constexpr double kRouterMm2 = 0.008;      ///< mesh router
constexpr double kComparatorMm2 = 0.00005;

double
kb(double bits)
{
    return bits / 8.0 / 1024.0;
}

} // namespace

double
AreaReport::total() const
{
    double t = 0;
    for (const auto& e : entries)
        t += e.mm2;
    return t;
}

double
AreaReport::additions() const
{
    double t = 0;
    for (const auto& e : entries) {
        if (e.taskStreamAddition)
            t += e.mm2;
    }
    return t;
}

double
AreaReport::overheadPercent() const
{
    const double base = total() - additions();
    return base > 0 ? 100.0 * additions() / base : 0.0;
}

AreaReport
computeArea(const DeltaConfig& cfg)
{
    AreaReport r;
    const double lanes = cfg.lanes;
    const auto& geom = cfg.lane.fabric.geom;
    const double tiles = geom.numTiles();

    // --- the static-parallel baseline hardware -------------------------
    r.entries.push_back(
        {"fabric FUs (per-lane tiles)", lanes * tiles * kFuMm2, false});
    r.entries.push_back(
        {"fabric routing/switches",
         lanes * tiles * kSwitchMm2 * geom.linkMultiplicity, false});
    r.entries.push_back(
        {"scratchpads",
         lanes * kSramMm2PerKB *
             (cfg.lane.spm.sizeWords * wordBytes / 1024.0),
         false});
    r.entries.push_back(
        {"stream engines",
         lanes *
             (cfg.lane.numReadEngines + cfg.lane.numWriteEngines) *
             (kRegMm2PerKB * kb(3 * 24 * 80) + 4 * kComparatorMm2),
         false});
    r.entries.push_back(
        {"mesh routers", (lanes + 2) * kRouterMm2, false});

    // --- TaskStream additions ------------------------------------------
    // Lane task queues: laneQueueCap entries x ~64B descriptor refs.
    r.entries.push_back(
        {"lane task queues",
         lanes * kRegMm2PerKB * kb(cfg.laneQueueCap * 64 * 8), true});
    // Dispatcher: ready queue + per-lane work counters + group table.
    r.entries.push_back(
        {"dispatcher ready queue (64 x 64B)",
         kSramMm2PerKB * kb(64 * 64 * 8), true});
    r.entries.push_back(
        {"dispatcher work counters",
         kRegMm2PerKB * kb(lanes * 32) + lanes * kComparatorMm2, true});
    r.entries.push_back(
        {"shared-group table (16 x 32B)",
         kRegMm2PerKB * kb(16 * 32 * 8), true});
    // Pipe receive buffers: a 4KB/lane budget.  The simulated pipes
    // are unbounded and exceed it: msort x delta at scale 1 peaks at
    // 2048 tokens (16KB) on lanes 1 and 2, and 4 of 8 lanes pass 4KB
    // (lane<i>.pipeMaxOccupancy); DESIGN.md §4, pipe buffers.
    r.entries.push_back(
        {"pipe receive buffers (4KB/lane)",
         lanes * kSramMm2PerKB * 4.0, true});
    // Work estimator: one multiply-accumulate per dispatcher.
    r.entries.push_back({"work estimator datapath", 2 * kFuMm2, true});

    return r;
}

} // namespace ts
