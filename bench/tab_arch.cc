/**
 * @file
 * Tab-1: architecture parameters of the simulated Delta system.
 * A configuration dump so the evaluation context is reproducible
 * from the binary alone, after a sanity sweep of the selected
 * workloads (default: spmv) under the delta preset.
 */

#include <cstdio>

#include "bench_util.hh"

namespace
{

using namespace ts;
using namespace ts::bench;

void
printTable(const driver::SweepReport& report)
{
    std::puts("");
    for (const driver::RunOutcome& r : report.runs)
        std::printf("sanity run %-32s %9.0f cycles  %s\n",
                    r.point.tag().c_str(), r.cycles,
                    r.ok() ? "ok" : "FAILED");

    const DeltaConfig cfg = DeltaConfig::delta(8);
    std::puts("");
    std::puts("Tab-1  Simulated Delta architecture parameters");
    rule();
    auto row = [](const char* k, const std::string& v) {
        std::printf("%-36s %s\n", k, v.c_str());
    };
    const auto& g = cfg.lane.fabric.geom;
    row("lanes", std::to_string(cfg.lanes));
    row("fabric per lane",
        std::to_string(g.rows) + "x" + std::to_string(g.cols) +
            " tiles, link multiplicity " +
            std::to_string(g.linkMultiplicity));
    row("fabric reconfiguration",
        std::to_string(cfg.lane.fabric.configBaseCycles) + " + " +
            std::to_string(cfg.lane.fabric.configPerNodeCycles) +
            "/node cycles");
    row("port FIFOs / operand FIFOs",
        std::to_string(cfg.lane.fabric.portFifoDepth) + " / " +
            std::to_string(cfg.lane.fabric.operandFifoDepth) +
            " tokens");
    row("stream engines per lane",
        std::to_string(cfg.lane.numReadEngines) + " read, " +
            std::to_string(cfg.lane.numWriteEngines) + " write");
    row("memory-port MSHRs per lane",
        std::to_string(cfg.lane.maxOutstandingLines) + " lines");
    row("scratchpad per lane",
        std::to_string(cfg.lane.spm.sizeWords * wordBytes / 1024) +
            " KiB, " + std::to_string(cfg.lane.spm.portsPerCycle) +
            " ports/cycle");
    row("task queue per lane",
        std::to_string(cfg.laneQueueCap) + " entries");
    row("NoC", "2D mesh, XY routing, " +
                   std::to_string(cfg.nocLinks.linkWords) +
                   " words/cycle/link, multicast trees");
    row("DRAM banks", std::to_string(cfg.mem.numBanks));
    row("DRAM latency / bank occupancy",
        std::to_string(cfg.mem.serviceLatency) + " / " +
            std::to_string(cfg.mem.bankOccupancy) + " cycles");
    row("DRAM issue width",
        std::to_string(cfg.mem.issueWidth) + " lines/cycle");
    row("scheduling policy (Delta)", schedPolicyName(cfg.policy));
    row("baseline", "owner-compute static partition, "
                    "bulk-synchronous levels");
    rule();
}

} // namespace

int
main(int argc, char** argv)
{
    return sweepFigure("tab_arch", argc, argv, {Wk::Spmv},
                       driver::sweepConfigsFromList("delta"),
                       printTable);
}
