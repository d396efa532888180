/**
 * @file
 * Tab-2: workload characterization — task counts, dependence-edge
 * kinds, shared groups, and the distribution of per-task work
 * (mean and coefficient of variation), computed from the built task
 * graphs without simulating.
 *
 * Each workload's graph is built and characterized on the sweep
 * engine's host thread pool (-j N, default hardware concurrency);
 * rows print in canonical order regardless of which thread finished
 * first.
 */

#include <cmath>
#include <cstdio>

#include "bench_util.hh"

namespace
{

using namespace ts;
using namespace ts::bench;

struct Row
{
    std::size_t tasks = 0;
    std::size_t barriers = 0;
    std::size_t pipelines = 0;
    std::size_t groups = 0;
    double meanWork = 0;
    double cvWork = 0;
};

Row
characterize(Wk w, const SuiteParams& sp)
{
    auto wl = makeWorkload(w, sp);
    Delta delta(DeltaConfig::delta(8));
    TaskGraph g;
    wl->build(delta, g);

    Row r;
    r.tasks = g.numTasks();
    for (const DepEdge& e : g.edges()) {
        if (e.kind == DepKind::Barrier)
            ++r.barriers;
        else
            ++r.pipelines;
    }
    r.groups = g.groups().size();

    double sum = 0, sum2 = 0;
    for (const TaskInstance& t : g.tasks()) {
        const double wk =
            delta.registry().estimateWork(delta.image(), t);
        sum += wk;
        sum2 += wk * wk;
    }
    r.meanWork = sum / static_cast<double>(r.tasks);
    const double var =
        sum2 / static_cast<double>(r.tasks) - r.meanWork * r.meanWork;
    r.cvWork = r.meanWork > 0
                   ? std::sqrt(std::max(0.0, var)) / r.meanWork
                   : 0;
    return r;
}

bool
run(const driver::RunOptions& opt)
{
    const std::vector<Wk>& workloads = opt.workloads;
    const SuiteParams sp = opt.suiteParams();
    std::vector<Row> rows(workloads.size());
    driver::parallelFor(workloads.size(), opt.jobs, [&](std::size_t i) {
        rows[i] = characterize(workloads[i], sp);
    });

    std::puts("");
    std::puts("Tab-2  Workload characterization (default scale)");
    rule(78);
    std::printf("%-10s %7s %9s %9s %7s %11s %7s\n", "workload", "tasks",
                "barriers", "pipelines", "groups", "mean work", "CV");
    rule(78);
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const Row& r = rows[i];
        std::printf("%-10s %7zu %9zu %9zu %7zu %11.0f %7.2f\n",
                    wkName(workloads[i]), r.tasks, r.barriers,
                    r.pipelines, r.groups, r.meanWork, r.cvWork);
    }
    rule(78);
    std::puts("CV = per-task work variation; the workloads with high "
              "CV are the ones where work-aware balancing pays off");
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    return figureMain("tab_workloads", argc, argv, allWorkloads(), run);
}
