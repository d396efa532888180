/**
 * @file
 * delta-sweep: the single CLI entry point for running grids of
 * simulations on a host thread pool (src/driver/sweep.hh), either
 * directly, against a content-addressed run cache, or through the
 * sweep daemon (src/service/sweep_service.hh).
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
 *   --serve SOCK      daemon: serve sweep requests on a Unix socket
 *   --connect SOCK    client: send one request to a daemon; the grid
 *                     is described with --set/--grid only, so exactly
 *                     what is sent is what was typed
 *
 * Per-run StatSets land in --bench-json DIR as `<tag>.json` in the
 * wrapper shape `tools/delta-report --baseline` ingests.  Exit code:
 * 0 when every run completed and passed its check, 1 otherwise, 2 on
 * usage/protocol errors.
 */

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "analysis/json.hh"
#include "cache/run_cache.hh"
#include "driver/grid.hh"
#include "service/sweep_service.hh"
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
        "                    hit/miss per point; run nothing\n"
        "service options:\n"
        "  --serve SOCK      serve sweep requests on a Unix socket\n"
        "  --connect SOCK    send one request to a serving daemon;\n"
        "                    combine with --set/--grid (sweep),\n"
        "                    --ping, --shutdown, --status,\n"
        "                    --metrics, or --watch\n"
        "  --status          one live-telemetry snapshot: uptime,\n"
        "                    cells done/in flight, per-worker cells,\n"
        "                    cache outcomes, ETA\n"
        "  --metrics         Prometheus text exposition (ts_sweep_*)\n"
        "                    on stdout, for scrapers\n"
        "  --watch           poll status about once a second until\n"
        "                    the in-flight sweep finishes\n",
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

/**
 * Read a grid file as raw key/value pairs (same syntax as
 * driver::loadGridFile) for forwarding to a daemon.
 */
std::vector<std::pair<std::string, std::string>>
readGridKvs(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open grid file '", path, "'");
    std::vector<std::pair<std::string, std::string>> kvs;
    std::string line;
    std::size_t lineno = 0;
    const auto trim = [](std::string s) {
        const auto tb = s.find_first_not_of(" \t\r");
        const auto te = s.find_last_not_of(" \t\r");
        return tb == std::string::npos ? std::string()
                                       : s.substr(tb, te - tb + 1);
    };
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            fatal("grid file ", path, ":", lineno,
                  ": expected `key = value`, got '", line, "'");
        kvs.emplace_back(trim(line.substr(0, eq)),
                         trim(line.substr(eq + 1)));
    }
    return kvs;
}

/** One-line summary of a parsed status reply's "status" object. */
std::string
statusSummary(const analysis::Json& st)
{
    std::ostringstream os;
    const auto num = [&st](const char* key) {
        return static_cast<unsigned long long>(st.at(key).num);
    };
    if (st.at("sweeping").b) {
        os << "sweeping: " << num("done") << "/" << num("runs")
           << " cells done, " << num("inflight") << " in flight";
        if (num("hits") + num("misses") > 0)
            os << ", cache " << num("hits") << "/"
               << (num("hits") + num("misses")) << " hits";
        const double eta = st.at("etaSec").num;
        if (eta > 0) {
            char buf[32];
            std::snprintf(buf, sizeof buf, ", ETA %.0fs", eta);
            os << buf;
        }
    } else if (num("runs") > 0) {
        os << "idle (last sweep: " << num("done") << "/"
           << num("runs") << " cells)";
    } else {
        os << "idle";
    }
    return os.str();
}

/** --status: one pretty snapshot of the daemon's live telemetry. */
int
statusMain(const std::string& sock)
{
    const std::string line = service::status(sock);
    analysis::Json reply;
    if (line.empty() || !analysis::parseJson(line, reply)) {
        std::fprintf(stderr, "delta-sweep: no daemon at %s\n",
                     sock.c_str());
        return 2;
    }
    const analysis::Json& st = reply.at("status");
    std::printf("daemon: up %.1fs, %llu requests served\n",
                st.at("uptimeSec").num,
                static_cast<unsigned long long>(st.at("served").num));
    std::printf("%s\n", statusSummary(st).c_str());
    for (const analysis::Json& w : st.at("workers").arr)
        std::printf("  worker %llu: %s\n",
                    static_cast<unsigned long long>(
                        w.at("worker").num),
                    w.at("cell").str.c_str());
    return 0;
}

/** --watch: poll status about once a second until the sweep ends. */
int
watchMain(const std::string& sock)
{
    const bool tty = isatty(fileno(stdout)) != 0;
    for (;;) {
        const std::string line = service::status(sock);
        analysis::Json reply;
        if (line.empty() || !analysis::parseJson(line, reply)) {
            if (tty)
                std::printf("\n");
            std::fprintf(stderr, "delta-sweep: no daemon at %s\n",
                         sock.c_str());
            return 2;
        }
        const analysis::Json& st = reply.at("status");
        const std::string summary = statusSummary(st);
        if (tty) {
            // Redraw in place; \033[K clears the previous line's tail.
            std::printf("\r\033[K%s", summary.c_str());
            std::fflush(stdout);
        } else {
            std::printf("%s\n", summary.c_str());
        }
        if (!st.at("sweeping").b) {
            if (tty)
                std::printf("\n");
            return 0;
        }
        std::this_thread::sleep_for(std::chrono::seconds(1));
    }
}

/**
 * Client mode: everything after --connect is forwarded verbatim, so
 * shared flags are rejected here (use `--set key=value` instead) —
 * what was typed is exactly what the daemon receives.
 */
int
clientMain(int argc, char** argv)
{
    std::string sock;
    bool doPing = false;
    bool doShutdown = false;
    bool doStatus = false;
    bool doMetrics = false;
    bool doWatch = false;
    std::map<std::string, std::string> settings;

    // Validation scratch: catches bad keys/values client-side with
    // the same messages a local run would give.
    driver::RunOptions scratchOpt;
    driver::GridSettings scratchGrid;
    const auto record = [&](const std::string& key,
                            const std::string& value) {
        driver::applyGridKey(key, value, scratchOpt, scratchGrid);
        settings[key] = value;
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("option '", arg, "' requires a value");
            return argv[++i];
        };
        if (arg == "--connect") {
            sock = value();
        } else if (arg == "--ping") {
            doPing = true;
        } else if (arg == "--shutdown") {
            doShutdown = true;
        } else if (arg == "--status") {
            doStatus = true;
        } else if (arg == "--metrics") {
            doMetrics = true;
        } else if (arg == "--watch") {
            doWatch = true;
        } else if (arg == "--set") {
            const auto [k, v] = splitSetting(value());
            record(k, v);
        } else if (arg == "--grid") {
            for (const auto& [k, v] : readGridKvs(value()))
                record(k, v);
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            fatal("option '", arg, "' is not valid with --connect; "
                  "describe the sweep with --set KEY=VALUE or "
                  "--grid FILE");
        }
    }

    if (doPing) {
        if (service::ping(sock)) {
            std::puts("ok");
            return 0;
        }
        std::fprintf(stderr, "delta-sweep: no daemon at %s\n",
                     sock.c_str());
        return 2;
    }
    if (doShutdown) {
        if (service::shutdown(sock))
            return 0;
        std::fprintf(stderr, "delta-sweep: no daemon at %s\n",
                     sock.c_str());
        return 2;
    }
    if (doStatus)
        return statusMain(sock);
    if (doWatch)
        return watchMain(sock);
    if (doMetrics) {
        const std::string text = service::metrics(sock);
        if (text.empty()) {
            std::fprintf(stderr, "delta-sweep: no daemon at %s\n",
                         sock.c_str());
            return 2;
        }
        std::fputs(text.c_str(), stdout);
        return 0;
    }
    if (settings.empty())
        fatal("--connect needs a request: --set/--grid, --ping, "
              "--shutdown, --status, --metrics, or --watch");

    std::ostringstream req;
    req << "{\"op\": \"sweep\", \"grid\": {";
    bool first = true;
    for (const auto& [k, v] : settings) {
        if (!first)
            req << ", ";
        first = false;
        req << "\"" << jsonEscape(k) << "\": \"" << jsonEscape(v)
            << "\"";
    }
    req << "}}";
    return service::requestSweep(sock, req.str(), std::cout);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace ts;

    try {
        // Client mode bypasses shared-flag parsing entirely: nothing
        // may be consumed locally that should have been forwarded.
        for (int i = 1; i < argc; ++i)
            if (std::string(argv[i]) == "--connect")
                return clientMain(argc, argv);

        // Shared flags first (consumed from argv, TS_* fallbacks
        // applied); the remainder must all be grid options.
        driver::RunOptions opt =
            driver::parseCommandLine(argc, argv, /*strict=*/false);
        driver::GridSettings grid;
        std::string serveSock;

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
            } else if (arg == "--serve") {
                serveSock = value();
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

        if (!serveSock.empty()) {
            std::fprintf(stderr, "delta-sweep: serving on %s\n",
                         serveSock.c_str());
            service::ServeConfig cfg;
            cfg.socketPath = serveSock;
            service::serve(cfg);
            return 0;
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
