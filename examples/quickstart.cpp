/**
 * @file
 * Quickstart: the smallest complete Delta program.
 *
 * Defines one dataflow task type (y[i] = 3*x[i] + 7), carves an input
 * array into independent tasks, runs them on an 8-lane Delta via
 * driver::runOne — the shared assemble/run/check/report path every
 * one-shot binary uses — and checks the result.
 *
 *   $ ./build/examples/quickstart
 *   $ ./build/examples/quickstart --trace trace.json --stats-json stats.json
 */

#include <cstdio>

#include "driver/run_one.hh"
#include "sim/logging.hh"

using namespace ts;

int
main(int argc, char** argv)
{
    // Shared flags (--trace, --stats-json, --log, ...); Delta itself
    // only ever sees the DeltaConfig they fold into.
    const driver::RunOptions opt =
        driver::parseCommandLineOrExit(argc, argv);

    const std::size_t n = 1 << 14, chunk = 512;
    Addr in = 0, out = 0;

    driver::RunSpec spec;
    // TaskStream configuration: work-aware balancing + pipeline
    // recovery + shared-read multicast, on 8 lanes.
    spec.cfg = DeltaConfig::delta(8);
    spec.workload = "quickstart";

    spec.build = [&](Delta& delta, TaskGraph& graph) {
        MemImage& img = delta.image();

        // 1. Describe the task body as a dataflow graph.  Every
        //    input port streams tokens into the fabric; immediates
        //    are baked into the configuration.
        auto dfg = std::make_unique<Dfg>("scale");
        const auto x = dfg->addInput();
        const auto m =
            dfg->add(Op::Mul, Operand::ref(x), Operand::immI(3));
        const auto a =
            dfg->add(Op::Add, Operand::ref(m), Operand::immI(7));
        dfg->addOutput(a);
        const TaskTypeId scale =
            delta.registry().addDfgType("scale", std::move(dfg));

        // 2. Lay out data in the functional memory image.
        in = img.allocWords(n);
        out = img.allocWords(n);
        for (std::size_t i = 0; i < n; ++i) {
            img.writeInt(in + i * wordBytes,
                         static_cast<std::int64_t>(i));
        }

        // 3. Emit one task per chunk.  The stream descriptor *is*
        //    the argument: the hardware reads work estimates straight
        //    from it.
        for (std::size_t c = 0; c < n; c += chunk) {
            WriteDesc dst;
            dst.base = out + c * wordBytes;
            graph.addTask(scale,
                          {StreamDesc::linear(Space::Dram,
                                              in + c * wordBytes,
                                              chunk)},
                          {dst});
        }
    };

    std::string tracePath;
    spec.check = [&](Delta& delta) {
        if (delta.tracer().enabled())
            tracePath = delta.tracer().path();
        std::size_t errors = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (delta.image().readInt(out + i * wordBytes) !=
                3 * static_cast<std::int64_t>(i) + 7) {
                ++errors;
            }
        }
        return errors == 0;
    };

    // 4. Run to completion and inspect results + statistics.  An
    //    unwritable --trace or --stats-json path is fatal.
    driver::RunResult r;
    try {
        r = driver::runOne(opt, spec);
    } catch (const FatalError& e) {
        std::fprintf(stderr, "quickstart: %s\n", e.what());
        return 2;
    }

    std::printf("quickstart: %zu tasks, %zu words, %s\n", n / chunk,
                n, r.correct ? "PASS" : "FAIL");
    std::printf("  cycles         : %.0f\n", r.cycles);
    std::printf("  DRAM lines read: %.0f\n",
                r.stats.get("mem.linesRead"));
    std::printf("  NoC word-hops  : %.0f\n",
                r.stats.get("noc.wordHops"));
    std::printf("  lane imbalance : %.3f (max/mean busy)\n",
                r.stats.get("delta.imbalance"));
    std::printf("  cycle breakdown: %.0f%% busy, %.0f%% memWait, "
                "%.0f%% nocWait, %.0f%% idle\n",
                100 * r.stats.get("delta.accounting.frac.busy"),
                100 * r.stats.get("delta.accounting.frac.memWait"),
                100 * r.stats.get("delta.accounting.frac.nocWait"),
                100 * r.stats.get("delta.accounting.frac.idle"));
    if (!tracePath.empty()) {
        std::printf("  trace          : %s (%.0f events; load in "
                    "https://ui.perfetto.dev)\n",
                    tracePath.c_str(), r.stats.get("trace.events"));
    }
    return r.correct ? 0 : 1;
}
