/**
 * @file
 * delta-sweep: the single CLI entry point for running grids of
 * simulations on a host thread pool (src/driver/sweep.hh), either
 * directly or against a content-addressed run cache.
 *
 * A grid is the cross product workloads x configs x seeds x scales.
 * Each point runs in full isolation; results aggregate
 * deterministically (bit-identical between -j 1 and -j N, and between
 * cold and warm cache passes).
 *
 * Modes:
 *   (default)         expand the grid and run it locally
 *   --dry-run         print each point's tag, cache key, and
 *                     predicted hit/miss; execute nothing
 *
 * Every other flag comes from the shared option table
 * (src/driver/options.hh), which also defines the grid-file keys:
 * `--key value` and `key = value` mean the same thing.  Per-run
 * StatSets land in --bench-json DIR as `<tag>.json` in the wrapper
 * shape `tools/delta-report --baseline` ingests.  Exit code: 0 when
 * every run completed and passed its check, 1 otherwise, 2 on usage
 * errors (including --stats-json, which names one run's file) or an
 * unwritable --out report.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "cache/run_cache.hh"
#include "driver/sweep.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace
{

using namespace ts;

/** The flags only delta-sweep has, ahead of the option table's. */
const char* const kUsage =
    "usage: delta-sweep [options]\n"
    "  --grid FILE       apply a `key = value` grid file\n"
    "  --set KEY=VALUE   apply one grid setting inline\n"
    "  --list-grid-keys  print every grid key with its values, exit\n"
    "  --dry-run         print tag, cache key, and predicted hit/miss\n"
    "                    per point; run nothing\n"
    "  --quiet           no per-run progress on stderr\n";

} // namespace

int
main(int argc, char** argv)
{
    using namespace ts;

    try {
        driver::RunOptions opt;
        driver::GridSettings grid;
        bool dryRun = false, quiet = false, listKeys = false,
             help = false;
        driver::parseArgs(
            argc, argv, driver::Scope::Sweep, opt, grid,
            [&](const std::string& arg,
                const std::function<std::string()>& value) {
                if (arg == "--grid") {
                    driver::loadGridFile(value(), opt, grid);
                } else if (arg == "--set") {
                    const std::string kv = value();
                    const std::size_t eq = kv.find('=');
                    if (eq == std::string::npos || eq == 0)
                        fatal("--set expects KEY=VALUE, got '", kv,
                              "'");
                    driver::applyGridKey(kv.substr(0, eq),
                                         kv.substr(eq + 1), opt, grid);
                } else if (arg == "--list-grid-keys") {
                    listKeys = true;
                } else if (arg == "--dry-run") {
                    dryRun = true;
                } else if (arg == "--quiet") {
                    quiet = true;
                } else if (arg == "--help" || arg == "-h") {
                    help = true;
                } else {
                    return false;
                }
                return true;
            });
        if (help) {
            std::cout << kUsage
                      << driver::optionsHelp(driver::Scope::Sweep);
            return 0;
        }
        if (listKeys) {
            driver::printGridKeys(std::cout);
            return 0;
        }

        driver::SweepSpec spec = driver::buildSweepSpec(opt, grid);
        // Progress/ETA is interactive chrome: off for pipes by
        // default, but --progress=always forces it into CI logs and
        // --progress=never silences a TTY.
        spec.progress = spec.progress && !quiet;

        if (dryRun) {
            driver::Sweep sweep(spec);
            std::unique_ptr<cache::RunCache> cache;
            if (!spec.cacheDir.empty())
                cache = std::make_unique<cache::RunCache>(
                    cache::RunCacheConfig{spec.cacheDir,
                                          spec.cacheCapBytes});
            const std::string& fp = cache::RunCache::codeFingerprint();
            std::size_t hits = 0;
            for (const driver::RunPoint& p : sweep.points()) {
                const std::string key = cache::RunCache::keyFor(
                    fp, driver::canonicalCell(spec, p));
                const bool hit = cache && cache->contains(key);
                hits += hit ? 1 : 0;
                std::printf("%-40s %s %s\n", p.tag().c_str(),
                            key.c_str(), hit ? "hit" : "miss");
            }
            if (!quiet)
                std::fprintf(stderr,
                             "delta-sweep: dry run: %zu points, "
                             "%zu predicted hits, %zu misses\n",
                             sweep.points().size(), hits,
                             sweep.points().size() - hits);
            return 0;
        }

        const std::size_t nw = spec.workloads.size();
        const std::size_t nc = spec.configs.size();
        const std::size_t ns = spec.seeds.size();
        const std::size_t nx = spec.scales.size();
        driver::Sweep sweep(std::move(spec));
        if (!quiet) {
            if (opt.jobs > 0)
                std::fprintf(
                    stderr,
                    "delta-sweep: %zu runs (%zu workloads x %zu "
                    "configs x %zu seeds x %zu scales), -j %u\n",
                    sweep.points().size(), nw, nc, ns, nx, opt.jobs);
            else
                std::fprintf(
                    stderr,
                    "delta-sweep: %zu runs (%zu workloads x %zu "
                    "configs x %zu seeds x %zu scales), -j auto\n",
                    sweep.points().size(), nw, nc, ns, nx);
        }
        const driver::SweepReport report = sweep.run();

        if (!report.spec.cacheDir.empty())
            std::fprintf(stderr,
                         "delta-sweep: cache: %llu hits, %llu "
                         "misses\n",
                         static_cast<unsigned long long>(
                             report.cacheHits),
                         static_cast<unsigned long long>(
                             report.cacheMisses));

        if (!grid.out.empty()) {
            std::ofstream os(grid.out);
            if (!os)
                fatal("cannot write report '", grid.out, "'");
            report.writeJson(os);
            os.close();
            if (!os)
                fatal("cannot write report '", grid.out, "'");
            std::fprintf(stderr, "delta-sweep: report written to %s\n",
                         grid.out.c_str());
        } else {
            report.writeJson(std::cout);
        }

        const std::size_t bad = report.failures();
        if (bad > 0) {
            std::fprintf(stderr,
                         "delta-sweep: %zu of %zu runs failed:\n",
                         bad, report.runs.size());
            for (const driver::RunOutcome& r : report.runs) {
                if (!r.ok())
                    std::fprintf(
                        stderr, "  %-32s %s\n",
                        r.point.tag().c_str(),
                        r.failed ? r.error.c_str() : "check failed");
            }
            return 1;
        }
        return 0;
    } catch (const FatalError& e) {
        std::cerr << "delta-sweep: " << e.what() << "\n";
        return 2;
    }
}
