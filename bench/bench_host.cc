/**
 * @file
 * Host-throughput benchmark for the activity-driven simulation core:
 * how many simulated cycles per wall-clock second the simulator
 * sustains, with fast-forwarding on (`ff:1`) versus the naive
 * tick-everything reference mode (`ff:0`).
 *
 * Four benches, two synthetic and two real:
 *  - SyntheticIdle   a pacemaker taking long timed naps among a
 *                    crowd of sleeping components — the idle-heavy
 *                    extreme where sleep/wake and idle fast-forward
 *                    dominate (this is where the >= 2x floor lives);
 *  - SyntheticBusy   every component busy every cycle — the
 *                    worst case for the active-list machinery, run
 *                    to bound its overhead;
 *  - SpmvStatic      real workload, static-parallel class (bulk-
 *                    synchronous barriers leave lanes idling);
 *  - MsortDelta      real workload, TaskStream class (pipelined
 *                    dependences keep more of the machine awake).
 *
 * Every bench reports `sim_cycles_per_sec` (simulated cycles per
 * wall-clock second of Simulator::run) and `sim_cycles`.  CI runs
 * this with --benchmark_format=json and gates the ff:1 / ff:0
 * speedups against the host-* floors in ci/perf-floors.txt.
 *
 * Shared run options (--scale, --seed, ...) are parsed first; every
 * argument the option table does not know goes to google-benchmark.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "driver/options.hh"

namespace
{

using namespace ts;

/** This process's run options (set once in main). */
driver::RunOptions gOpt;

// ---------------------------------------------------------------------
// Synthetic components.
// ---------------------------------------------------------------------

/** Does nothing, forever: pure sleep/wake bookkeeping weight. */
class Sleeper : public Ticked
{
  public:
    Sleeper() : Ticked("sleeper") {}
    void tick(Tick) override { sleepOnWake(); }
    bool busy() const override { return false; }
};

/** Wakes every @p period cycles, @p naps times, then finishes. */
class Pacemaker : public Ticked
{
  public:
    Pacemaker(Tick period, std::uint64_t naps)
        : Ticked("pacemaker"), period_(period), left_(naps)
    {
    }

    void
    tick(Tick now) override
    {
        if (left_ > 0) {
            --left_;
            sleepUntil(now + period_);
        }
    }

    bool busy() const override { return left_ > 0; }

  private:
    Tick period_;
    std::uint64_t left_;
};

/** Busy every cycle until its countdown runs out. */
class Grinder : public Ticked
{
  public:
    explicit Grinder(std::uint64_t n) : Ticked("grinder"), left_(n) {}

    void
    tick(Tick) override
    {
        if (left_ > 0)
            --left_;
    }

    bool busy() const override { return left_ > 0; }

  private:
    std::uint64_t left_;
};

constexpr std::size_t kComponents = 128;

void
BM_SyntheticIdle(benchmark::State& state)
{
    const bool ff = state.range(0) != 0;
    std::uint64_t simCycles = 0;
    for (auto _ : state) {
        state.PauseTiming();
        Simulator sim;
        sim.setFastForward(ff);
        Pacemaker pace(/*period=*/500, /*naps=*/200);
        std::vector<std::unique_ptr<Sleeper>> crowd;
        sim.add(&pace);
        for (std::size_t i = 0; i < kComponents; ++i) {
            crowd.push_back(std::make_unique<Sleeper>());
            sim.add(crowd.back().get());
        }
        state.ResumeTiming();
        simCycles += sim.run(1'000'000);
    }
    state.counters["sim_cycles"] = static_cast<double>(simCycles);
    state.counters["sim_cycles_per_sec"] = benchmark::Counter(
        static_cast<double>(simCycles), benchmark::Counter::kIsRate);
}

void
BM_SyntheticBusy(benchmark::State& state)
{
    const bool ff = state.range(0) != 0;
    std::uint64_t simCycles = 0;
    for (auto _ : state) {
        state.PauseTiming();
        Simulator sim;
        sim.setFastForward(ff);
        std::vector<std::unique_ptr<Grinder>> crowd;
        for (std::size_t i = 0; i < kComponents; ++i) {
            crowd.push_back(std::make_unique<Grinder>(50'000));
            sim.add(crowd.back().get());
        }
        state.ResumeTiming();
        simCycles += sim.run(1'000'000);
    }
    state.counters["sim_cycles"] = static_cast<double>(simCycles);
    state.counters["sim_cycles_per_sec"] = benchmark::Counter(
        static_cast<double>(simCycles), benchmark::Counter::kIsRate);
}

// ---------------------------------------------------------------------
// Real workloads (one per execution-model class).
// ---------------------------------------------------------------------

void
runWorkload(benchmark::State& state, Wk wk, DeltaConfig cfg)
{
    const bool ff = state.range(0) != 0;
    cfg.noFastForward = !ff;
    double simCycles = 0;
    double wallNs = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto wl = makeWorkload(wk, gOpt.suiteParams());
        Delta delta(cfg);
        TaskGraph graph;
        wl->build(delta, graph);
        state.ResumeTiming();
        const StatSet stats = delta.run(graph);
        simCycles += stats.get("sim.cycles");
        wallNs += stats.get("sim.host.wallNs");
    }
    state.counters["sim_cycles"] = simCycles;
    // Rate over the simulator's own wall-clock counter, so graph
    // building and checking never dilute the measurement.
    state.counters["sim_cycles_per_sec"] =
        wallNs > 0 ? simCycles / (wallNs / 1e9) : 0.0;
}

void
BM_SpmvStatic(benchmark::State& state)
{
    runWorkload(state, Wk::Spmv, DeltaConfig::staticBaseline());
}

void
BM_MsortDelta(benchmark::State& state)
{
    runWorkload(state, Wk::Msort, DeltaConfig::delta());
}

BENCHMARK(BM_SyntheticIdle)
    ->ArgName("ff")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SyntheticBusy)
    ->ArgName("ff")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SpmvStatic)
    ->ArgName("ff")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MsortDelta)
    ->ArgName("ff")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);
} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> rest{argv[0]};
    ts::driver::GridSettings unused;
    ts::driver::parseArgs(argc, argv, ts::driver::Scope::Run, gOpt,
                          unused,
                          [&](const std::string& arg,
                              const std::function<std::string()>&) {
                              rest.push_back(arg);
                              return true;
                          });
    std::vector<char*> args;
    for (std::string& a : rest)
        args.push_back(a.data());
    int n = static_cast<int>(args.size());
    args.push_back(nullptr);
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
