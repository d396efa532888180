/**
 * @file
 * Fig-7: sensitivity to per-lane task-queue depth.
 *
 * Queue entries are the hardware cost of decoupling dispatch from
 * execution.  Expected shape: one entry serializes dispatch with
 * execution; a few entries recover nearly all performance (knee
 * around 2-4), justifying the small queue in the area model.
 *
 * Two sweeps over named configs `delta-q<N>` (the delta preset at
 * queue depth N) and `dyncount-q<N>` (the same with count-balanced
 * dispatch): Fig-7 runs the selected workloads, Fig-7b is a fixed
 * study of the Zipf-skewed join.
 */

#include <cstdio>

#include "bench_util.hh"

namespace
{

using namespace ts;
using namespace ts::bench;

const std::vector<std::uint32_t> kCaps = {1, 2, 4, 8, 16};

/** The delta preset at queue depth @p cap under policy @p p. */
driver::ConfigVariant
queueConfig(SchedPolicy p, std::uint32_t cap)
{
    DeltaConfig cfg = DeltaConfig::delta(8);
    cfg.policy = p;
    cfg.laneQueueCap = cap;
    const std::string base =
        p == SchedPolicy::WorkAware ? "delta" : schedPolicyName(p);
    return {base + "-q" + std::to_string(cap), cfg};
}

std::vector<driver::ConfigVariant>
queueConfigs(const std::vector<SchedPolicy>& policies)
{
    std::vector<driver::ConfigVariant> out;
    for (const SchedPolicy p : policies) {
        for (const auto c : kCaps)
            out.push_back(queueConfig(p, c));
    }
    return out;
}

void
printDepthTable(const driver::SweepReport& report)
{
    std::puts("");
    std::puts("Fig-7  Task-queue depth sensitivity (Delta, 8 lanes; "
              "cycles normalized to depth 16)");
    rule();
    std::printf("%-10s", "workload");
    for (const auto c : kCaps)
        std::printf(" %9u", c);
    std::puts("");
    rule();
    for (const Wk w : report.spec.workloads) {
        std::printf("%-10s", wkName(w));
        const double best = outcome(report, w, "delta-q16").cycles;
        for (const auto c : kCaps) {
            const driver::RunOutcome& r = outcome(
                report, w, queueConfig(SchedPolicy::WorkAware, c).name);
            std::printf(" %8.2fx", r.cycles / best);
        }
        std::puts("");
    }
    rule();
    std::puts("expected shape: knee at small depth; deep queues add "
              "nothing (supports the small area budget in Tab-3)");
}

void
printPolicyTable(const driver::SweepReport& report)
{
    std::puts("");
    std::puts("Fig-7b  Policy x depth interaction on the Zipf-skewed "
              "join (cycles)");
    rule();
    std::printf("%-10s", "policy");
    for (const auto c : kCaps)
        std::printf(" %9u", c);
    std::puts("");
    rule();
    for (const auto p : {SchedPolicy::DynCount, SchedPolicy::WorkAware}) {
        std::printf("%-10s", schedPolicyName(p));
        for (const auto c : kCaps)
            std::printf(" %9.0f", outcome(report, Wk::Join,
                                          queueConfig(p, c).name)
                                      .cycles);
        std::puts("");
    }
    rule();
    std::puts("expected shape: with shallow queues the policies tie "
              "(late commitment adapts); with deep queues placement "
              "commits early and the work-aware hint wins");
}

bool
run(const driver::RunOptions& opt)
{
    const driver::SweepReport depth =
        runSweep(opt, queueConfigs({SchedPolicy::WorkAware}));
    const driver::SweepReport policy = runSweep(
        opt,
        queueConfigs({SchedPolicy::DynCount, SchedPolicy::WorkAware}),
        {Wk::Join});
    printDepthTable(depth);
    printPolicyTable(policy);
    return depth.allOk() && policy.allOk();
}

} // namespace

int
main(int argc, char** argv)
{
    return figureMain("fig_queue", argc, argv,
                      {Wk::Spmv, Wk::Cholesky, Wk::Msort}, run);
}
