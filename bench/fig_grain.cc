/**
 * @file
 * Fig-4: sensitivity to task granularity.
 *
 * SpMV row-block size and msort leaf size are swept.  Expected shape:
 * very fine grains pay dispatch/reconfiguration overheads; very
 * coarse grains starve the balancer (fewer tasks than needed to even
 * out skew).  Delta's sweet spot is wider than the baseline's.
 *
 * The grain axis is a workload parameter, not a suite workload, so
 * each point is a driver::runOne over its own workload instance
 * (512x1024 spmv, 8192-key msort, both times --scale), run on the
 * sweep engine's thread pool.  --workloads selects the studies (spmv,
 * msort); per-run StatSets land in --bench-json DIR as
 * `<wk>_<static|delta>-<grain>_l8_s<seed>_x<scale>.json`.
 */

#include <cstdio>
#include <memory>

#include "bench_util.hh"
#include "driver/run_one.hh"
#include "workloads/msort.hh"
#include "workloads/spmv.hh"

namespace
{

using namespace ts;
using namespace ts::bench;

const std::vector<std::uint64_t> kRowsPerTask = {4, 8, 16, 32, 64};
const std::vector<std::uint64_t> kLeafSizes = {256, 512, 1024, 2048};

/** One study: a workload whose task grain is swept. */
struct Study
{
    Wk wk;
    const char* grainName; ///< config-name infix, e.g. "rpt"
    std::vector<std::uint64_t> grains;
    std::uint64_t size = 0; ///< spmv rows or msort keys at this scale
};

std::unique_ptr<Workload>
makeGrainWorkload(const Study& s, std::uint64_t grain,
                  const driver::RunOptions& opt)
{
    if (s.wk == Wk::Spmv) {
        SpmvParams p;
        p.rows = s.size;
        p.cols = static_cast<std::uint64_t>(1024 * opt.scale);
        p.rowsPerTask = grain;
        p.seed = opt.seed;
        return std::make_unique<SpmvWorkload>(p);
    }
    MsortParams p;
    p.n = s.size;
    p.leafSize = grain;
    p.seed = opt.seed;
    return std::make_unique<MsortWorkload>(p);
}

std::vector<Study>
selectStudies(const driver::RunOptions& opt)
{
    std::uint64_t keys = 1;
    while (static_cast<double>(keys) < 8192 * opt.scale)
        keys <<= 1;
    std::vector<Study> out;
    for (const Wk w : opt.workloads) {
        if (w == Wk::Spmv) {
            out.push_back({w, "rpt", kRowsPerTask,
                           static_cast<std::uint64_t>(512 * opt.scale)});
        } else if (w == Wk::Msort) {
            // A leaf cannot be larger than the whole input.
            Study s{w, "leaf", {}, keys};
            for (const auto g : kLeafSizes) {
                if (g <= keys)
                    s.grains.push_back(g);
            }
            out.push_back(s);
        }
    }
    if (out.empty())
        fatal("fig_grain studies spmv and msort; --workloads selects "
              "neither");
    return out;
}

/** One run of the figure. */
struct Point
{
    const Study* study;
    std::uint64_t grain;
    bool delta;
    double cycles = 0;
    std::string error; ///< empty when the run passed its check
};

bool
run(const driver::RunOptions& opt)
{
    const std::vector<Study> studies = selectStudies(opt);
    std::vector<Point> points;
    for (const Study& s : studies) {
        for (const auto g : s.grains) {
            points.push_back({&s, g, false, 0, {}});
            points.push_back({&s, g, true, 0, {}});
        }
    }

    driver::parallelFor(points.size(), opt.jobs, [&](std::size_t i) {
        Point& p = points[i];
        const std::string name =
            std::string(p.delta ? "delta-" : "static-") +
            p.study->grainName + std::to_string(p.grain);
        try {
            const auto wl = makeGrainWorkload(*p.study, p.grain, opt);
            DeltaConfig cfg = p.delta ? DeltaConfig::delta(8)
                                      : DeltaConfig::staticBaseline(8);
            // Name the trace by the run tag, as sweep points do, so
            // the thread pool cannot reorder the files.
            cfg.trace = driver::traceConfigTagged(
                opt.overrides.tracePath,
                driver::runTag(wl->name(), name, cfg.lanes, opt.seed,
                               opt.scale));
            const driver::RunResult r =
                driver::runOne(opt, *wl, {name, cfg});
            p.cycles = r.cycles;
            if (!r.correct)
                p.error = "check failed";
        } catch (const std::exception& e) {
            p.error = e.what();
        }
        if (!p.error.empty())
            std::fprintf(stderr, "  %s %s: %s\n",
                         wkName(p.study->wk), name.c_str(),
                         p.error.c_str());
    });

    std::puts("");
    std::puts("Fig-4  Task-granularity sensitivity (8 lanes)");
    bool ok = true;
    std::size_t i = 0;
    for (const Study& s : studies) {
        rule();
        if (s.wk == Wk::Spmv) {
            std::printf("spmv (%llu rows): rows per task\n",
                        static_cast<unsigned long long>(s.size));
            std::printf("  %10s", "rows/task");
        } else {
            std::printf("msort (%llu keys): leaf chunk size\n",
                        static_cast<unsigned long long>(s.size));
            std::printf("  %10s", "leaf");
        }
        std::printf(" %14s %14s %9s\n", "static(cyc)", "delta(cyc)",
                    "speedup");
        for (const auto g : s.grains) {
            const Point& st = points[i++];
            const Point& dy = points[i++];
            ok = ok && st.error.empty() && dy.error.empty();
            std::printf("  %10llu %14.0f %14.0f %8.2fx\n",
                        static_cast<unsigned long long>(g), st.cycles,
                        dy.cycles, st.cycles / dy.cycles);
        }
    }
    rule();
    std::puts("expected shape: Delta tolerates a wider range of "
              "grain sizes than the static design");
    return ok;
}

} // namespace

int
main(int argc, char** argv)
{
    return figureMain("fig_grain", argc, argv, {Wk::Spmv, Wk::Msort},
                      run);
}
