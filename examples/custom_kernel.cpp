/**
 * @file
 * Building a custom workload from scratch: a sorted-set similarity
 * kernel (pairwise intersection sizes between a query set and many
 * candidate sets) using the fabric's data-dependent IsectCount unit,
 * shared-read multicast of the query set, and a reduction task.
 *
 * This is the template to copy when porting your own task-parallel
 * kernel onto Delta.
 *
 *   $ ./build/examples/custom_kernel
 */

#include <algorithm>
#include <cstdio>
#include <set>

#include "driver/run_one.hh"
#include "sim/rng.hh"

using namespace ts;

int
main(int argc, char** argv)
{
    const driver::RunOptions opt =
        driver::parseCommandLineOrExit(argc, argv);

    const std::size_t nCand = 64, querySize = 256;
    std::vector<std::int64_t> expected(nCand);
    std::int64_t expectBest = 0;
    Addr counts = 0, bestAddr = 0;

    driver::RunSpec spec;
    spec.cfg = DeltaConfig::delta(8);
    spec.workload = "custom_kernel";

    spec.build = [&](Delta& delta, TaskGraph& graph) {
        MemImage& img = delta.image();
        Rng rng(2026);

        // --- data: one query set, many candidate sets (sorted ids) ---
        auto sampleSorted = [&](std::size_t n) {
            std::set<std::int64_t> s;
            while (s.size() < n)
                s.insert(rng.uniformInt(0, 1 << 14));
            return std::vector<std::int64_t>(s.begin(), s.end());
        };

        const auto query = sampleSorted(querySize);
        const Addr queryAddr = img.allocWords(querySize);
        for (std::size_t i = 0; i < querySize; ++i)
            img.writeInt(queryAddr + i * wordBytes, query[i]);

        std::vector<Addr> candAddr(nCand);
        std::vector<std::size_t> candLen(nCand);
        for (std::size_t c = 0; c < nCand; ++c) {
            // Zipf-skewed candidate sizes: heavy tails stress
            // balancing.
            const auto cand =
                sampleSorted(16 + 24 * (rng.zipf(64, 1.1) + 1));
            candLen[c] = cand.size();
            candAddr[c] = img.allocWords(cand.size());
            for (std::size_t i = 0; i < cand.size(); ++i)
                img.writeInt(candAddr[c] + i * wordBytes, cand[i]);
            expected[c] = static_cast<std::int64_t>(std::count_if(
                cand.begin(), cand.end(), [&](std::int64_t k) {
                    return std::binary_search(query.begin(),
                                              query.end(), k);
                }));
        }

        // --- task types ---------------------------------------------
        // similarity(candidate, query) -> |candidate ∩ query|
        auto sim = std::make_unique<Dfg>("similarity");
        const auto candIn = sim->addInput();
        const auto queryIn = sim->addInput();
        sim->addOutput(sim->add(Op::IsectCount, Operand::ref(candIn),
                                Operand::ref(queryIn)));
        const TaskTypeId simTy =
            delta.registry().addDfgType("similarity", std::move(sim));

        // best(counts) -> max similarity (a second, dependent task).
        auto best = std::make_unique<Dfg>("best");
        const auto cIn = best->addInput();
        best->addOutput(best->add(Op::AccMax, Operand::ref(cIn)));
        const TaskTypeId bestTy =
            delta.registry().addDfgType("best", std::move(best));

        // --- task graph ---------------------------------------------
        counts = img.allocWords(nCand);
        bestAddr = img.allocWords(1);

        const auto group = graph.addSharedGroup(queryAddr, querySize);
        std::vector<TaskId> tasks;
        for (std::size_t c = 0; c < nCand; ++c) {
            WriteDesc out;
            out.base = counts + c * wordBytes;
            const TaskId id = graph.addTask(
                simTy,
                {StreamDesc::linear(Space::Dram, candAddr[c],
                                    candLen[c]),
                 StreamDesc::linear(Space::Dram, queryAddr,
                                    querySize)},
                {out});
            graph.setSharedInput(id, 1, group);
            tasks.push_back(id);
        }
        WriteDesc bestOut;
        bestOut.base = bestAddr;
        const TaskId reduce = graph.addTask(
            bestTy, {StreamDesc::linear(Space::Dram, counts, nCand)},
            {bestOut});
        for (const TaskId t : tasks)
            graph.addBarrier(t, reduce);
    };

    std::int64_t gotBest = 0;
    spec.check = [&](Delta& delta) {
        MemImage& img = delta.image();
        std::size_t errors = 0;
        for (std::size_t c = 0; c < nCand; ++c) {
            if (img.readInt(counts + c * wordBytes) != expected[c])
                ++errors;
            expectBest = std::max(expectBest, expected[c]);
        }
        gotBest = img.readInt(bestAddr);
        if (gotBest != expectBest)
            ++errors;
        return errors == 0;
    };

    // --- run & check ------------------------------------------------
    const driver::RunResult r = driver::runOne(opt, spec);

    std::printf("custom_kernel: %zu similarity tasks + 1 reduction, "
                "%s\n",
                nCand, r.correct ? "PASS" : "FAIL");
    std::printf("  best similarity   : %lld (expected %lld)\n",
                static_cast<long long>(gotBest),
                static_cast<long long>(expectBest));
    std::printf("  cycles            : %.0f\n", r.cycles);
    std::printf("  multicast groups  : %.0f fired, %.0f fill lines\n",
                r.stats.get("dispatcher.groupsFired"),
                r.stats.get("delta.attrib.multicast.fillLines"));
    return r.correct ? 0 : 1;
}
