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
 * Per-run StatSets land in --bench-json DIR as `<tag>.json` in the
 * wrapper shape `tools/delta-report --baseline` ingests.  Exit code:
 * 0 when every run completed and passed its check, 1 otherwise, 2 on
 * usage errors or an unwritable --out report.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "cache/run_cache.hh"
#include "driver/grid.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace
{

using namespace ts;

[[noreturn]] void
usage(int code)
{
    std::FILE* os = code == 0 ? stdout : stderr;
    std::fputs(
        "usage: delta-sweep [grid options] [shared options]\n"
        "grid options:\n"
        "  --configs LIST    comma-separated presets (default\n"
        "                    'static,delta'; valid: static, dyn,\n"
        "                    work, work-steal, pipe, delta, spatial)\n"
        "  --seeds LIST      comma-separated seeds (default: --seed)\n"
        "  --scales LIST     comma-separated scales (default: --scale)\n"
        "  --lanes N         lanes for every config (default 8)\n"
        "  --baseline NAME   speedup baseline (default: first config)\n"
        "  --out PATH        aggregate JSON report\n"
        "  --grid FILE       `key = value` grid file\n"
        "  --set KEY=VALUE   one grid-file setting inline\n"
        "  --list-grid-keys  print the full `key = value` vocabulary\n"
        "                    (every key with its accepted values)\n"
        "                    and exit\n"
        "  --quiet           no per-run progress on stderr\n"
        "cache options:\n"
        "  --cache DIR       content-addressed run cache: consult\n"
        "                    before running, publish after\n"
        "  --cache-cap BYTES cache size budget (K/M/G suffixes ok)\n"
        "  --dry-run         print tag, cache key, and predicted\n"
        "                    hit/miss per point; run nothing\n",
        os);
    std::fputs(ts::driver::optionsHelp(), os);
    std::exit(code);
}

/** Split `KEY=VALUE` (fatal without '='). */
std::pair<std::string, std::string>
splitSetting(const std::string& arg)
{
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("--set expects KEY=VALUE, got '", arg, "'");
    return {arg.substr(0, eq), arg.substr(eq + 1)};
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace ts;

    try {
        // Shared flags first (consumed from argv, TS_* fallbacks
        // applied); the remainder must all be grid options.
        driver::RunOptions opt =
            driver::parseCommandLine(argc, argv, /*strict=*/false);
        driver::GridSettings grid;

        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("option '", arg, "' requires a value");
                return argv[++i];
            };
            if (arg == "--configs") {
                grid.configs = value();
                (void)driver::sweepConfigsFromList(grid.configs);
            } else if (arg == "--seeds") {
                grid.seeds = driver::parseSeedList(value());
            } else if (arg == "--scales") {
                grid.scales = driver::parseScaleList(value());
            } else if (arg == "--lanes") {
                grid.lanes = driver::parseLanes(value());
            } else if (arg == "--baseline") {
                grid.baseline = value();
            } else if (arg == "--out") {
                grid.out = value();
            } else if (arg == "--grid") {
                driver::loadGridFile(value(), opt, grid);
            } else if (arg == "--set") {
                const auto [k, v] = splitSetting(value());
                driver::applyGridKey(k, v, opt, grid);
            } else if (arg == "--list-grid-keys") {
                driver::printGridKeys(std::cout);
                return 0;
            } else if (arg == "--cache") {
                grid.cacheDir = value();
            } else if (arg == "--cache-cap") {
                grid.cacheCapBytes = driver::parseCapBytes(value());
            } else if (arg == "--dry-run") {
                grid.dryRun = true;
            } else if (arg == "--quiet") {
                grid.quiet = true;
            } else if (arg == "--help" || arg == "-h") {
                usage(0);
            } else {
                std::cerr << "delta-sweep: unknown option '" << arg
                          << "'\n\n";
                usage(2);
            }
        }

        driver::SweepSpec spec = driver::buildSweepSpec(opt, grid);
        // Progress/ETA is interactive chrome: off for pipes by
        // default, but --progress=always forces it into CI logs and
        // --progress=never silences a TTY.
        spec.progress = !grid.quiet && opt.progressEnabled();

        if (grid.dryRun) {
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
            if (!grid.quiet)
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
        if (!grid.quiet) {
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
