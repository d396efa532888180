#include "driver/sweep.hh"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "analysis/json.hh"
#include "cache/run_cache.hh"
#include "driver/run_one.hh"
#include "sim/logging.hh"
#include "task/task_graph.hh"

namespace ts
{
namespace driver
{

namespace
{

unsigned
resolveJobs(unsigned jobs)
{
    if (jobs > 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/** Sample mean/stddev over @p xs (stddev 0 when n < 2). */
void
meanStddev(const std::vector<double>& xs, double& mean,
           double& stddev)
{
    mean = 0.0;
    stddev = 0.0;
    if (xs.empty())
        return;
    double sum = 0.0;
    for (const double x : xs)
        sum += x;
    mean = sum / static_cast<double>(xs.size());
    if (xs.size() < 2)
        return;
    double ss = 0.0;
    for (const double x : xs)
        ss += (x - mean) * (x - mean);
    stddev = std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

} // namespace

const std::vector<std::string>&
sweepConfigNames()
{
    static const std::vector<std::string> names = {
        "static", "dyn",   "work",    "work-steal",
        "pipe",   "delta", "spatial"};
    return names;
}

ConfigVariant
sweepConfig(const std::string& name, std::uint32_t lanes)
{
    ConfigVariant v;
    v.name = name;
    if (name == "static") {
        v.cfg = DeltaConfig::staticBaseline(lanes);
    } else if (name == "dyn") {
        v.cfg = DeltaConfig::delta(lanes);
        v.cfg.policy = SchedPolicy::DynCount;
        v.cfg.enablePipeline = false;
        v.cfg.enableMulticast = false;
    } else if (name == "work") {
        v.cfg = DeltaConfig::delta(lanes);
        v.cfg.enablePipeline = false;
        v.cfg.enableMulticast = false;
    } else if (name == "work-steal") {
        v.cfg = DeltaConfig::delta(lanes);
        v.cfg.enablePipeline = false;
        v.cfg.enableMulticast = false;
        v.cfg.steal = StealPolicy::StealHalf;
    } else if (name == "pipe") {
        v.cfg = DeltaConfig::delta(lanes);
        v.cfg.enableMulticast = false;
    } else if (name == "delta") {
        v.cfg = DeltaConfig::delta(lanes);
    } else if (name == "spatial") {
        v.cfg = DeltaConfig::spatial(lanes);
    } else {
        std::string valid;
        for (const std::string& n : sweepConfigNames())
            valid += (valid.empty() ? "" : ", ") + n;
        fatal("unknown sweep config '", name, "'; valid configs: ",
              valid);
    }
    return v;
}

std::vector<ConfigVariant>
sweepConfigsFromList(const std::string& list, std::uint32_t lanes)
{
    std::vector<ConfigVariant> out;
    for (const std::string& name : splitList(list))
        out.push_back(sweepConfig(name, lanes));
    if (out.empty()) {
        out.push_back(sweepConfig("static", lanes));
        out.push_back(sweepConfig("delta", lanes));
    }
    return out;
}

std::string
SweepSpec::baselineName() const
{
    if (!baseline.empty())
        return baseline;
    return configs.size() > 1 ? configs.front().name : std::string();
}

std::string
RunPoint::tag() const
{
    return runTag(wkName(workload), config, lanes, seed, scale);
}

std::string
canonicalConfig(const DeltaConfig& cfg)
{
    std::ostringstream os;
    os << "lanes=" << cfg.lanes
       << " policy=" << schedPolicyName(cfg.policy)
       << " steal=" << stealPolicyName(cfg.steal)
       << " pipeline=" << cfg.enablePipeline
       << " multicast=" << cfg.enableMulticast
       << " bulkSync=" << cfg.bulkSynchronous
       << " laneQueueCap=" << cfg.laneQueueCap
       << " re=" << cfg.lane.numReadEngines
       << " we=" << cfg.lane.numWriteEngines
       << " mshrs=" << cfg.lane.maxOutstandingLines
       << " fabric=" << cfg.lane.fabric.geom.rows << "x"
       << cfg.lane.fabric.geom.cols << "x"
       << cfg.lane.fabric.geom.linkMultiplicity << "/"
       << cfg.lane.fabric.portFifoDepth << "/"
       << cfg.lane.fabric.operandFifoDepth << "/"
       << cfg.lane.fabric.configBaseCycles << "/"
       << cfg.lane.fabric.configPerNodeCycles
       << " spm=" << cfg.lane.spm.sizeWords << "/"
       << cfg.lane.spm.portsPerCycle
       << " read=" << cfg.lane.read.deliverWidth << "/"
       << cfg.lane.read.genPerCycle << "/"
       << cfg.lane.read.fetcher.maxOutstanding << "/"
       << cfg.lane.read.fetcher.maxWindow << "/"
       << cfg.lane.read.fetcher.issuesPerCycle
       << " write=" << cfg.lane.write.width << "/"
       << cfg.lane.write.writeQueueDepth
       << " mem=" << cfg.mem.numBanks << "/" << cfg.mem.serviceLatency
       << "/" << cfg.mem.bankOccupancy << "/" << cfg.mem.issueWidth
       << "/" << cfg.mem.queueCapacity
       << " noc=" << cfg.nocLinks.channelCapacity << "/"
       << cfg.nocLinks.linkWords
       << " spatialBuf=" << cfg.spatialBufferWords
       << " maxCycles=" << cfg.maxCycles
       << " noFastForward=" << cfg.noFastForward
       << " timeline=" << cfg.timelineInterval << "/"
       << cfg.timelineMaxSamples << "/" << cfg.timelineSeries;
    return os.str();
}

DeltaConfig
SweepSpec::pointConfig(const RunPoint& point) const
{
    for (const ConfigVariant& c : configs) {
        if (c.name == point.config)
            return overrides.applyTo(c.cfg, point.tag());
    }
    fatal("sweep: point config '", point.config,
          "' is not in the config list");
}

SweepSpec
sweepSpec(const RunOptions& opt, std::vector<ConfigVariant> configs)
{
    SweepSpec spec;
    spec.workloads = opt.workloads;
    spec.configs = std::move(configs);
    spec.seeds = {opt.seed};
    spec.scales = {opt.scale};
    spec.jobs = opt.jobs;
    spec.overrides = opt.overrides;
    spec.progress = opt.progressEnabled();
    return spec;
}

SweepSpec
buildSweepSpec(const RunOptions& opt, const GridSettings& grid)
{
    SweepSpec spec =
        sweepSpec(opt, sweepConfigsFromList(grid.configs, grid.lanes));
    if (!grid.seeds.empty())
        spec.seeds = grid.seeds;
    if (!grid.scales.empty())
        spec.scales = grid.scales;
    spec.baseline = grid.baseline;
    spec.cacheDir = grid.cacheDir;
    spec.cacheCapBytes = grid.cacheCapBytes;
    return spec;
}

std::string
canonicalCell(const SweepSpec& spec, const RunPoint& point)
{
    std::ostringstream os;
    // v3: spatial scheduling extended the canonical-config
    // vocabulary (policy=spatial, spatialBuf).
    os << "v3 wk=" << wkName(point.workload)
       << " config=" << point.config << " seed=" << point.seed
       << " scale=" << jsonNumber(point.scale) << " | "
       << canonicalConfig(spec.pointConfig(point));
    return os.str();
}

Sweep::Sweep(SweepSpec spec) : spec_(std::move(spec))
{
    if (spec_.workloads.empty())
        fatal("sweep: no workloads selected");
    if (spec_.configs.empty())
        fatal("sweep: no configs selected");
    if (!spec_.overrides.statsJsonPath.empty())
        fatal("--stats-json writes one run's stats, but a sweep runs "
              "many points; use --bench-json DIR");
    if (spec_.seeds.empty())
        fatal("sweep: no seeds selected");
    if (spec_.scales.empty())
        fatal("sweep: no scales selected");
    for (const double s : spec_.scales) {
        if (!(s > 0))
            fatal("sweep: scales must be positive, got ", s);
    }
    if (!spec_.baseline.empty()) {
        bool found = false;
        for (const ConfigVariant& c : spec_.configs)
            found = found || c.name == spec_.baseline;
        if (!found) {
            std::string valid;
            for (const ConfigVariant& c : spec_.configs)
                valid += (valid.empty() ? "" : ", ") + c.name;
            fatal("sweep: baseline '", spec_.baseline,
                  "' is not in the config list (", valid, ")");
        }
    }

    // Deterministic grid order: workload-major, then scale, seed,
    // config — the paired baseline/config runs of one point land
    // adjacently, and every aggregate walks this same order.
    for (const Wk w : spec_.workloads) {
        for (const double scale : spec_.scales) {
            for (const std::uint64_t seed : spec_.seeds) {
                for (const ConfigVariant& c : spec_.configs) {
                    RunPoint p;
                    p.workload = w;
                    p.config = c.name;
                    p.seed = seed;
                    p.scale = scale;
                    p.lanes = c.cfg.lanes;
                    points_.push_back(p);
                }
            }
        }
    }
}

namespace
{

/** The bench-JSON wrapper for a finished run.  This exact string is
 *  both the per-run file under benchJsonDir and the run-cache
 *  payload, so warm replays reproduce the file byte-for-byte. */
std::string
wrapperOf(const RunOutcome& out)
{
    const RunPoint& p = out.point;
    return benchWrapperJson(wkName(p.workload), p.config, p.lanes,
                            p.seed, p.scale, out.correct, out.cycles,
                            out.stats);
}

/** Write @p payload as the point's per-run bench JSON.  A failed
 *  write fails the point, naming the path, so the sweep exits
 *  nonzero instead of silently dropping the file. */
void
writePointJson(const SweepSpec& spec, const RunPoint& point,
               const std::string& payload, RunOutcome& out)
{
    out.error = writeBenchJson(spec.overrides.benchJsonDir,
                               point.tag(), payload);
    out.failed = !out.error.empty();
}

/**
 * Rebuild a RunOutcome from a cached bench-wrapper payload.  JSON
 * null stat values (dumpJson's rendering of non-finite doubles)
 * rehydrate as quiet NaN, so a re-dump reproduces the null.
 * @return false when the payload does not parse as a run result
 * (the caller then treats the entry as a miss and executes).
 */
bool
rehydrateOutcome(const std::string& payload, const RunPoint& point,
                 RunOutcome& out)
{
    analysis::Json j;
    if (!analysis::parseJson(payload, j) || !j.isObj())
        return false;
    if (!j.has("correct") || !j.has("cycles") || !j.has("stats") ||
        j.at("correct").kind != analysis::Json::Kind::Bool ||
        !j.at("stats").isObj())
        return false;

    out.point = point;
    out.failed = false;
    out.correct = j.at("correct").b;
    for (const auto& [name, v] : j.at("stats").obj) {
        if (v.isNum())
            out.stats.set(name, v.num);
        else if (v.kind == analysis::Json::Kind::Null)
            out.stats.set(name,
                          std::numeric_limits<double>::quiet_NaN());
        else
            return false;
    }
    out.cycles = j.at("cycles").isNum()
                     ? j.at("cycles").num
                     : std::numeric_limits<double>::quiet_NaN();
    return true;
}

/** Execute one grid point in full isolation on the calling thread.
 *  Consults the run cache first (when given); on a miss, runs on a
 *  freshly built Delta and publishes the finished result. */
RunOutcome
executePoint(const SweepSpec& spec, const RunPoint& point,
             const cache::RunCache* cache, bool& fromCache)
{
    fromCache = false;
    RunOutcome out;
    out.point = point;

    std::string cellKey, cacheKey;
    if (cache != nullptr) {
        cellKey = canonicalCell(spec, point);
        cacheKey = cache::RunCache::keyFor(
            cache::RunCache::codeFingerprint(), cellKey);
        std::string payload;
        if (cache->lookup(cacheKey, payload)) {
            RunOutcome cached;
            if (rehydrateOutcome(payload, point, cached)) {
                if (!spec.overrides.benchJsonDir.empty())
                    writePointJson(spec, point, payload, cached);
                fromCache = true;
                return cached;
            }
            warn("sweep: corrupt cache entry for ", point.tag(),
                 "; re-running");
        }
    }

    try {
        const DeltaConfig cfg = spec.pointConfig(point);
        SuiteParams sp;
        sp.seed = point.seed;
        sp.scale = point.scale;
        auto wl = makeWorkload(point.workload, sp);
        Delta delta(cfg);

        TaskGraph graph;
        wl->build(delta, graph);
        out.stats = delta.run(graph);
        out.cycles = out.stats.get("delta.cycles");
        out.correct = wl->check(delta.image());
    } catch (const std::exception& e) {
        out.failed = true;
        out.error = e.what();
    }

    if (!out.failed) {
        const std::string payload = wrapperOf(out);
        if (cache != nullptr && out.ok())
            cache->publish(cacheKey, cellKey, payload);
        if (!spec.overrides.benchJsonDir.empty())
            writePointJson(spec, point, payload, out);
    }
    return out;
}

} // namespace

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)>& fn)
{
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(resolveJobs(jobs), n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) {
        pool.emplace_back([&] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                fn(i);
            }
        });
    }
    for (std::thread& t : pool)
        t.join();
}

SweepReport
Sweep::run()
{
    SweepReport report;
    report.spec = spec_;
    report.runs.resize(points_.size());

    if (!spec_.overrides.benchJsonDir.empty())
        makeBenchJsonDir(spec_.overrides.benchJsonDir);

    std::unique_ptr<cache::RunCache> cache;
    if (!spec_.cacheDir.empty()) {
        if (!spec_.overrides.tracePath.empty()) {
            warn("sweep: tracing requested; bypassing the run cache");
        } else {
            cache::RunCacheConfig ccfg;
            ccfg.dir = spec_.cacheDir;
            ccfg.capBytes = spec_.cacheCapBytes;
            cache = std::make_unique<cache::RunCache>(ccfg);
        }
    }

    const auto start = std::chrono::steady_clock::now();
    std::mutex ioMutex;
    std::size_t done = 0;
    std::uint64_t hits = 0, misses = 0;

    parallelFor(points_.size(), spec_.jobs, [&](std::size_t i) {
        bool fromCache = false;
        RunOutcome out =
            executePoint(spec_, points_[i], cache.get(), fromCache);
        {
            std::lock_guard<std::mutex> lock(ioMutex);
            ++done;
            if (cache != nullptr)
                ++(fromCache ? hits : misses);
            if (spec_.progress) {
                const double elapsed =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                const double eta =
                    elapsed / static_cast<double>(done) *
                    static_cast<double>(points_.size() - done);
                const char* status =
                    out.failed
                        ? "FAILED"
                        : (out.correct
                               ? (fromCache ? "ok (cache)" : "ok")
                               : "INCORRECT");
                std::fprintf(
                    stderr, "[%3zu/%zu] %-32s %s  (%.1fs elapsed",
                    done, points_.size(), out.point.tag().c_str(),
                    status, elapsed);
                if (done < points_.size())
                    std::fprintf(stderr, ", ETA %.0fs", eta);
                std::fprintf(stderr, ")\n");
                if (out.failed)
                    std::fprintf(stderr, "        %s\n",
                                 out.error.c_str());
            }
        }
        report.runs[i] = std::move(out);
    });

    report.cacheHits = hits;
    report.cacheMisses = misses;
    return report;
}

const RunOutcome*
SweepReport::find(Wk w, const std::string& config,
                  std::uint64_t seed, double scale) const
{
    for (const RunOutcome& r : runs) {
        if (r.point.workload == w && r.point.config == config &&
            r.point.seed == seed && r.point.scale == scale)
            return &r;
    }
    return nullptr;
}

bool
SweepReport::allOk() const
{
    return failures() == 0;
}

std::size_t
SweepReport::failures() const
{
    std::size_t n = 0;
    for (const RunOutcome& r : runs)
        n += r.ok() ? 0 : 1;
    return n;
}

std::vector<CellAggregate>
SweepReport::aggregates() const
{
    std::vector<CellAggregate> out;
    for (const Wk w : spec.workloads) {
        for (const double scale : spec.scales) {
            for (const ConfigVariant& c : spec.configs) {
                CellAggregate cell;
                cell.workload = w;
                cell.config = c.name;
                cell.scale = scale;
                std::vector<double> cycles;
                for (const std::uint64_t seed : spec.seeds) {
                    const RunOutcome* r =
                        find(w, c.name, seed, scale);
                    if (r != nullptr && r->ok())
                        cycles.push_back(r->cycles);
                }
                cell.n = cycles.size();
                meanStddev(cycles, cell.meanCycles,
                           cell.stddevCycles);
                out.push_back(cell);
            }
        }
    }
    return out;
}

std::vector<PairedSpeedup>
SweepReport::pairedSpeedups() const
{
    std::vector<PairedSpeedup> out;
    const std::string base = spec.baselineName();
    if (base.empty())
        return out;
    for (const Wk w : spec.workloads) {
        for (const double scale : spec.scales) {
            for (const ConfigVariant& c : spec.configs) {
                if (c.name == base)
                    continue;
                PairedSpeedup ps;
                ps.workload = w;
                ps.config = c.name;
                ps.scale = scale;
                std::vector<double> ratios;
                for (const std::uint64_t seed : spec.seeds) {
                    const RunOutcome* b = find(w, base, seed, scale);
                    const RunOutcome* r =
                        find(w, c.name, seed, scale);
                    if (b != nullptr && r != nullptr && b->ok() &&
                        r->ok() && r->cycles > 0)
                        ratios.push_back(b->cycles / r->cycles);
                }
                ps.n = ratios.size();
                meanStddev(ratios, ps.mean, ps.stddev);
                out.push_back(ps);
            }
        }
    }
    return out;
}

void
SweepReport::writeJson(std::ostream& os) const
{
    os << "{\n  \"grid\": {\n    \"workloads\": [";
    for (std::size_t i = 0; i < spec.workloads.size(); ++i)
        os << (i > 0 ? ", " : "") << '"' << wkName(spec.workloads[i])
           << '"';
    os << "],\n    \"configs\": [";
    for (std::size_t i = 0; i < spec.configs.size(); ++i)
        os << (i > 0 ? ", " : "") << '"'
           << jsonEscape(spec.configs[i].name) << '"';
    os << "],\n    \"seeds\": [";
    for (std::size_t i = 0; i < spec.seeds.size(); ++i)
        os << (i > 0 ? ", " : "") << spec.seeds[i];
    os << "],\n    \"scales\": [";
    for (std::size_t i = 0; i < spec.scales.size(); ++i)
        os << (i > 0 ? ", " : "") << formatScale(spec.scales[i]);
    os << "],\n    \"baseline\": \""
       << jsonEscape(spec.baselineName()) << "\"\n  },\n";

    os << "  \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunOutcome& r = runs[i];
        os << (i > 0 ? ",\n" : "\n") << "    {\"tag\": \""
           << jsonEscape(r.point.tag()) << "\", \"workload\": \""
           << wkName(r.point.workload) << "\", \"config\": \""
           << jsonEscape(r.point.config)
           << "\", \"seed\": " << r.point.seed
           << ", \"scale\": " << formatScale(r.point.scale)
           << ", \"lanes\": " << r.point.lanes << ", \"correct\": "
           << (r.correct ? "true" : "false") << ", \"failed\": "
           << (r.failed ? "true" : "false");
        if (r.failed)
            os << ", \"error\": \"" << jsonEscape(r.error) << '"';
        os << ", \"cycles\": " << jsonNumber(r.cycles)
           << ",\n     \"stats\": ";
        if (r.failed)
            os << "{}";
        else
            // Host-side wall-clock counters are non-deterministic;
            // the aggregate report must stay byte-reproducible.
            r.stats.dumpJson(os, "sim.host.");
        os << "}";
    }
    os << "\n  ],\n";

    os << "  \"aggregates\": [";
    const auto aggs = aggregates();
    for (std::size_t i = 0; i < aggs.size(); ++i) {
        const CellAggregate& a = aggs[i];
        os << (i > 0 ? ",\n" : "\n") << "    {\"workload\": \""
           << wkName(a.workload) << "\", \"config\": \""
           << jsonEscape(a.config)
           << "\", \"scale\": " << formatScale(a.scale)
           << ", \"n\": " << a.n
           << ", \"meanCycles\": " << jsonNumber(a.meanCycles)
           << ", \"stddevCycles\": " << jsonNumber(a.stddevCycles)
           << "}";
    }
    os << "\n  ],\n";

    os << "  \"speedups\": [";
    const auto sps = pairedSpeedups();
    for (std::size_t i = 0; i < sps.size(); ++i) {
        const PairedSpeedup& s = sps[i];
        os << (i > 0 ? ",\n" : "\n") << "    {\"workload\": \""
           << wkName(s.workload) << "\", \"config\": \""
           << jsonEscape(s.config)
           << "\", \"scale\": " << formatScale(s.scale)
           << ", \"n\": " << s.n
           << ", \"mean\": " << jsonNumber(s.mean)
           << ", \"stddev\": " << jsonNumber(s.stddev) << "}";
    }
    os << "\n  ]\n}\n";
}

} // namespace driver
} // namespace ts
