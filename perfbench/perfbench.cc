/**
 * @file
 * perfbench: the repository benchmark.
 *
 * One process drives the simulator's public API for one workload, a
 * fixed set of cells (suite workload x config x scale), and prints
 * every metric by name with its unit.
 *
 *  - A pass runs every cell serially on this thread: makeWorkload,
 *    Delta::Delta, Workload::build, Delta::run and Workload::check,
 *    each timed from outside.
 *  - A sweep round runs the same grid through driver::Sweep on a pool
 *    of min(4, nproc) workers into a fresh run cache (cold), then
 *    replays it (warm).
 *
 * After one untimed warm-up pass and round, passes and rounds
 * alternate until --seconds have elapsed.  A pass timing is the sum
 * over cells of each cell's median; every other timing is a median
 * over rounds.
 *
 * --trace 0 prints the end-to-end metrics.  --trace 1 prints the
 * per-layer metrics instead.  It records a span around every public
 * call (kept in memory, written at exit with self time per layer),
 * re-maps every registered DFG through Mapper::map and every built
 * graph through spatial::mapTaskGraph, times the run cache and the
 * JSON reader on the cached payloads, and repeats every pass on fresh
 * Deltas with DeltaConfig::hostProfile on.  It never measures through
 * Sweep's snapshot/fork path: there, sim.host.profile.* accumulates
 * across the runs that share a worker's fork slot.
 *
 * Correctness gate: every cell must pass Workload::check; each cell's
 * stats (minus sim.host.*) must be identical across passes, profiled
 * passes and the sweep's own runs; the warm sweep report must be
 * byte-identical to the cold one, with every point a cache hit; the
 * re-mapped DFGs and spatial plans must equal the ones the run used.
 * Every miss counts as failed and makes the exit status 1.
 *
 * The last line on stdout is one JSON object:
 *   {"correct": ..., "attempted": N, "failed": N,
 *    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "analysis/json.hh"
#include "cache/run_cache.hh"
#include "cgra/mapping.hh"
#include "driver/sweep.hh"
#include "spatial/mapper.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ts;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------
// Metric vocabulary.  BENCHMARK.json at the repository root lists the
// same names, units and directions; selftest.py checks they agree.

struct MetricDef
{
    const char* name;
    const char* unit;
    const char* better; ///< "higher" or "lower"
    const char* layer;  ///< repository module the number comes from
};

const std::vector<MetricDef> kEndToEnd = {
    {"sim_cycles_per_s", "cycles/s", "higher", "sim"},
    {"pass_s", "s", "lower", "workloads"},
    {"setup_s", "s", "lower", "workloads"},
    {"peak_rss_mb", "MB", "lower", "accel"},
    {"sim_cycles", "cycles", "lower", "accel"},
    {"speedup_vs_static", "x", "higher", "accel"},
    {"sweep_cold_s", "s", "lower", "driver"},
    {"sweep_warm_s", "s", "lower", "driver"},
};

const std::vector<MetricDef> kPerLayer = {
    {"workloads.build_s", "s", "lower", "workloads"},
    {"workloads.check_s", "s", "lower", "workloads"},
    {"accel.ctor_s", "s", "lower", "accel"},
    {"accel.run_s", "s", "lower", "accel"},
    {"cgra.map_s", "s", "lower", "cgra"},
    {"spatial.map_s", "s", "lower", "spatial"},
    {"sim.ticks", "count", "lower", "sim"},
    {"sim.ns_per_tick", "ns", "lower", "sim"},
    {"sim.active_components", "count", "lower", "sim"},
    {"sim.ff_frac", "fraction", "higher", "sim"},
    {"cgra.firings", "count", "lower", "cgra"},
    {"cgra.active_cycles", "cycles", "lower", "cgra"},
    {"cgra.reconfigs", "count", "lower", "cgra"},
    {"stream.read_lines", "count", "lower", "stream"},
    {"stream.read_tokens", "count", "lower", "stream"},
    {"stream.spm_reads", "count", "higher", "stream"},
    {"stream.write_lines", "count", "lower", "stream"},
    {"stream.write_chunks", "count", "lower", "stream"},
    {"stream.spm_port_stalls", "cycles", "lower", "stream"},
    {"mem.lines_read", "count", "lower", "mem"},
    {"mem.lines_written", "count", "lower", "mem"},
    {"mem.bank_conflict_stalls", "cycles", "lower", "mem"},
    {"mem.queue_wait.p50", "cycles", "lower", "mem"},
    {"mem.queue_wait.p99", "cycles", "lower", "mem"},
    {"noc.packets", "count", "lower", "noc"},
    {"noc.word_hops", "count", "lower", "noc"},
    {"noc.pkt_latency.p50", "cycles", "lower", "noc"},
    {"noc.pkt_latency.p99", "cycles", "lower", "noc"},
    {"noc.mcast_packets", "count", "higher", "noc"},
    {"noc.mcast_word_hops_saved", "count", "higher", "noc"},
    {"spatial.forwards", "count", "higher", "spatial"},
    {"spatial.spills", "count", "lower", "spatial"},
    {"spatial.remaps", "count", "lower", "spatial"},
    {"spatial.dram_lines_saved", "count", "higher", "spatial"},
    {"spatial.landing_lines", "count", "higher", "spatial"},
    {"task.completed", "count", "higher", "task"},
    {"task.spawned", "count", "higher", "task"},
    {"task.ready_wait.p50", "cycles", "lower", "task"},
    {"task.ready_wait.p99", "cycles", "lower", "task"},
    {"task.pipes_activated", "count", "higher", "task"},
    {"task.pipe_overlap_cycles", "cycles", "higher", "task"},
    {"task.groups_fired", "count", "higher", "task"},
    {"task.wait_fill_cycles", "cycles", "lower", "task"},
    {"accel.frac.busy", "fraction", "higher", "accel"},
    {"accel.frac.memWait", "fraction", "lower", "accel"},
    {"accel.frac.nocWait", "fraction", "lower", "accel"},
    {"accel.frac.idle", "fraction", "lower", "accel"},
    {"accel.imbalance", "ratio", "lower", "accel"},
    {"accel.critpath_util", "fraction", "higher", "accel"},
    {"cache.lookup_s", "s", "lower", "cache"},
    {"cache.publish_s", "s", "lower", "cache"},
    {"cache.hit_frac", "fraction", "higher", "cache"},
    {"analysis.parse_s", "s", "lower", "analysis"},
    {"host.lane_frac", "fraction", "lower", "obs"},
    {"host.noc_frac", "fraction", "lower", "obs"},
    {"host.mem_frac", "fraction", "lower", "obs"},
    {"host.task_frac", "fraction", "lower", "obs"},
    {"host.sim_events_frac", "fraction", "lower", "obs"},
    {"host.sim_commit_frac", "fraction", "lower", "obs"},
    {"host.sim_ff_frac", "fraction", "lower", "obs"},
    {"host.sim_quiescence_frac", "fraction", "lower", "obs"},
    {"host.unattributed_frac", "fraction", "lower", "obs"},
    {"host.trace_overhead", "x", "lower", "obs"},
};

// ---------------------------------------------------------------------
// Workloads.

/** A workload: the cells wks x configs at one scale.  README.md says
 *  why each was chosen. */
struct WorkloadDef
{
    const char* name;
    std::vector<Wk> wks;
    std::vector<std::string> configs;
    double scale;
    /** Cells whose speedup over static is reported. */
    std::string speedupConfig;
};

const std::vector<WorkloadDef>&
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        // Memory-bound bulk-synchronous baseline: read engines, NoC,
        // DRAM and fabric do the host work.
        {"static-stream",
         {Wk::Spmv, Wk::Tricount, Wk::Centroid},
         {"static"},
         4.0,
         "static"},
        // The paper's configuration: work-aware balance, pipelines and
        // multicast; dispatcher, task unit and fast-forward.
        {"taskstream",
         {Wk::Msort, Wk::Tricount, Wk::Cholesky, Wk::Lu},
         {"delta"},
         4.0,
         "delta"},
        // AOT spatial mapping with lane-to-lane forwarding: streamed
        // edges served from landing buffers, run-time spawns.
        {"spatial-forward",
         {Wk::Join, Wk::Msort, Wk::MsortDyn},
         {"spatial"},
         4.0,
         "spatial"},
        // The figure-suite loop: 24 short cells where pool, fork, stat
        // dumps, run cache and JSON are a visible share.
        {"sweep-suite",
         {Wk::Spmv, Wk::Join, Wk::Msort, Wk::MsortDyn, Wk::Cholesky,
          Wk::Lu, Wk::Tricount, Wk::Centroid},
         {"static", "delta", "spatial"},
         1.0,
         "delta"},
    };
    return defs;
}

struct Cell
{
    Wk wk;
    std::string config;
    double scale;

    std::string
    tag() const
    {
        return std::string(wkName(wk)) + "_" + config;
    }
};

// ---------------------------------------------------------------------
// Spans: one per public call, recorded only in traced runs.

struct Span
{
    std::string layer;
    std::string name;
    double start = 0; ///< seconds since the log's epoch
    double end = 0;
    int parent = -1;
};

struct SpanLog
{
    bool on = false;
    Clock::time_point epoch = Clock::now();
    std::vector<Span> spans;
    int current = -1;
};

SpanLog spanLog;

/** Opens a span for its lifetime (no-op when the log is off). */
class ScopedSpan
{
  public:
    ScopedSpan(const char* layer, std::string name)
    {
        if (!spanLog.on)
            return;
        index_ = static_cast<int>(spanLog.spans.size());
        Span s;
        s.layer = layer;
        s.name = std::move(name);
        s.start = secondsBetween(spanLog.epoch, Clock::now());
        s.parent = spanLog.current;
        spanLog.spans.push_back(std::move(s));
        spanLog.current = index_;
    }

    ~ScopedSpan()
    {
        if (index_ < 0)
            return;
        Span& s = spanLog.spans[static_cast<std::size_t>(index_)];
        s.end = secondsBetween(spanLog.epoch, Clock::now());
        spanLog.current = s.parent;
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    int index_ = -1;
};

/** Run @p f inside a span and return its wall seconds. */
template <typename F>
double
timed(const char* layer, const char* name, F&& f)
{
    ScopedSpan span(layer, name);
    const auto t0 = Clock::now();
    f();
    return secondsBetween(t0, Clock::now());
}

/** Self time per layer: each span's duration minus its children's. */
std::map<std::string, double>
selfTimeByLayer()
{
    std::vector<double> childTime(spanLog.spans.size(), 0.0);
    for (const Span& s : spanLog.spans) {
        if (s.parent >= 0)
            childTime[static_cast<std::size_t>(s.parent)] +=
                s.end - s.start;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spanLog.spans.size(); ++i) {
        const Span& s = spanLog.spans[i];
        self[s.layer] += (s.end - s.start) - childTime[i];
    }
    return self;
}

void
writeSpans(const std::string& path)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "perfbench: cannot write spans to '" << path
                  << "'\n";
        return;
    }
    os << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spanLog.spans.size(); ++i) {
        const Span& s = spanLog.spans[i];
        os << (i == 0 ? "" : ",\n") << "{\"id\": " << i
           << ", \"parent\": " << s.parent << ", \"layer\": \""
           << jsonEscape(s.layer) << "\", \"name\": \""
           << jsonEscape(s.name) << "\", \"start_s\": "
           << jsonNumber(s.start) << ", \"end_s\": " << jsonNumber(s.end)
           << "}";
    }
    os << "\n],\n\"self_s\": {";
    bool first = true;
    for (const auto& [layer, s] : selfTimeByLayer()) {
        os << (first ? "" : ", ") << "\"" << jsonEscape(layer)
           << "\": " << jsonNumber(s);
        first = false;
    }
    os << "}}\n";
}

// ---------------------------------------------------------------------
// Samples: a timing's repetitions.

struct Samples
{
    std::vector<double> v;

    void add(double x) { v.push_back(x); }

    double
    median() const
    {
        if (v.empty())
            return std::nan("");
        std::vector<double> s = v;
        std::sort(s.begin(), s.end());
        const std::size_t n = s.size();
        return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
    }

    /** The highest percentile with at least ten samples beyond it, as
     *  (percentile, value); nullopt with fewer than eleven samples. */
    std::optional<std::pair<double, double>>
    tail() const
    {
        if (v.size() < 11)
            return std::nullopt;
        std::vector<double> s = v;
        std::sort(s.begin(), s.end());
        const std::size_t n = s.size();
        return std::make_pair(100.0 * static_cast<double>(n - 10) /
                                  static_cast<double>(n),
                              s[n - 11]);
    }
};

// ---------------------------------------------------------------------
// One cell, one pass.

/** The stats a run must reproduce exactly (host counters excluded). */
std::string
digestOf(const StatSet& stats)
{
    std::ostringstream os;
    stats.dumpJson(os, "sim.host.");
    return os.str();
}

struct CellRun
{
    double wallS = 0;  ///< the whole cell, set-up to teardown
    double buildS = 0; ///< makeWorkload + Workload::build
    double ctorS = 0, runS = 0, checkS = 0;
    double setupS = 0; ///< buildS + ctorS
    double cgraMapS = 0, spatialMapS = 0;
    StatSet stats;
    std::string error; ///< empty when the cell passed
};

/**
 * Run one cell on fresh objects.  @p probes re-maps every registered
 * DFG and the built task graph and checks the results against what
 * the run itself uses.
 */
CellRun
runCell(const Cell& c, std::uint64_t seed, bool hostProfile, bool probes)
{
    ScopedSpan span("bench", "cell " + c.tag());
    CellRun r;
    try {
        SuiteParams sp;
        sp.seed = seed;
        sp.scale = c.scale;
        std::unique_ptr<Workload> wl;
        r.buildS = timed("workloads", "makeWorkload",
                         [&] { wl = makeWorkload(c.wk, sp); });

        DeltaConfig cfg = driver::sweepConfig(c.config).cfg;
        cfg.hostProfile = hostProfile;
        std::unique_ptr<Delta> delta;
        r.ctorS = timed("accel", "Delta::Delta",
                        [&] { delta = std::make_unique<Delta>(cfg); });

        TaskGraph graph;
        r.buildS += timed("workloads", "Workload::build",
                          [&] { wl->build(*delta, graph); });
        r.setupS = r.ctorS + r.buildS;

        spatial::SpatialPlan plan;
        if (probes) {
            const TaskTypeRegistry& reg = delta->registry();
            const Mapper mapper(cfg.lane.fabric.geom);
            for (std::size_t i = 0; i < reg.numTypes(); ++i) {
                const TaskType& t =
                    reg.type(static_cast<TaskTypeId>(i));
                if (t.dfg == nullptr)
                    continue;
                MappedDfg m;
                r.cgraMapS += timed("cgra", "Mapper::map",
                                    [&] { m = mapper.map(*t.dfg); });
                if (m.nodeTile != t.mapped.nodeTile &&
                    r.error.empty())
                    r.error = "Mapper::map differs from the registry "
                              "mapping of " + t.name;
            }
            std::vector<std::uint32_t> laneNodes;
            for (std::uint32_t i = 0; i < cfg.lanes; ++i)
                laneNodes.push_back(delta->laneNode(i));
            r.spatialMapS = timed("spatial", "spatial::mapTaskGraph", [&] {
                plan = spatial::mapTaskGraph(
                    graph, delta->image(), delta->registry(),
                    delta->noc(), laneNodes, cfg.nocLinks.linkWords);
            });
        }

        r.runS = timed("accel", "Delta::run",
                       [&] { r.stats = delta->run(graph); });

        bool correct = false;
        r.checkS = timed("workloads", "Workload::check",
                         [&] { correct = wl->check(delta->image()); });
        if (!correct)
            r.error = "Workload::check failed";
        if (probes && cfg.policy == SchedPolicy::Spatial &&
            r.stats.getOr("delta.attrib.spatial.plannedMakespan", -1) !=
                static_cast<double>(plan.predictedMakespan) &&
            r.error.empty())
            r.error = "spatial::mapTaskGraph plan differs from the run's";
    } catch (const std::exception& e) {
        r.error = e.what();
    }
    if (r.error.empty() && !(r.stats.getOr("delta.cycles", 0) > 0))
        r.error = "no delta.cycles";
    return r;
}

struct Pass
{
    std::vector<CellRun> cells;

    double
    sum(double CellRun::*field) const
    {
        double t = 0;
        for (const CellRun& c : cells)
            t += c.*field;
        return t;
    }

    double
    stat(const char* name) const
    {
        double t = 0;
        for (const CellRun& c : cells)
            t += c.stats.getOr(name, 0);
        return t;
    }
};

Pass
runPass(const std::vector<Cell>& cells, std::uint64_t seed,
        bool hostProfile, bool probes)
{
    ScopedSpan span("bench", hostProfile ? "pass (host profile)" : "pass");
    Pass p;
    for (const Cell& c : cells) {
        const auto t0 = Clock::now();
        p.cells.push_back(runCell(c, seed, hostProfile, probes));
        // Includes tearing the cell's objects down.
        p.cells.back().wallS = secondsBetween(t0, Clock::now());
    }
    return p;
}

/**
 * Sum over cells of each cell's median @p field across @p passes.
 * Host noise on a shared machine comes in bursts shorter than a pass;
 * per-cell medians drop a burst without discarding the rest of its
 * pass, so they are steadier than the median of pass totals.
 */
double
sumOfCellMedians(const std::vector<Pass>& passes, double CellRun::*field)
{
    double total = 0;
    for (std::size_t i = 0; i < passes.front().cells.size(); ++i) {
        Samples s;
        for (const Pass& p : passes)
            s.add(p.cells[i].*field);
        total += s.median();
    }
    return total;
}

// ---------------------------------------------------------------------
// One sweep round: cold into a fresh run cache, then a warm replay.

constexpr int kWarmReplays = 5;

struct SweepRound
{
    double coldS = 0;
    std::vector<double> warmS; ///< one per replay

    double lookupS = 0, publishS = 0, parseS = 0;
    double hitFrac = 0;
    std::size_t points = 0;
    std::vector<std::string> errors;
};

std::string
reportBytes(const driver::SweepReport& r)
{
    std::ostringstream os;
    r.writeJson(os);
    return os.str();
}

SweepRound
runSweepRound(const WorkloadDef& w, std::uint64_t seed, double scale,
              const fs::path& dir, bool probes,
              const std::map<std::string, std::string>& digests)
{
    ScopedSpan span("bench", "sweep round");
    SweepRound r;
    fs::remove_all(dir);

    driver::SweepSpec spec;
    spec.workloads = w.wks;
    for (const std::string& c : w.configs)
        spec.configs.push_back(driver::sweepConfig(c));
    spec.seeds = {seed};
    spec.scales = {scale};
    spec.jobs = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    spec.cacheDir = (dir / "cache").string();

    driver::SweepReport cold, warm;
    std::vector<driver::RunPoint> points;
    r.coldS = timed("driver", "Sweep::run (cold)", [&] {
        driver::Sweep s(spec);
        points = s.points();
        cold = s.run();
    });
    r.points = points.size();
    if (!cold.allOk())
        r.errors.push_back("cold sweep has failed or incorrect points");
    if (cold.cacheMisses != points.size())
        r.errors.push_back("cold sweep hit a cache that should be empty");

    // A warm replay takes milliseconds; repeat it so its median is
    // steady.
    const std::string coldReport = reportBytes(cold);
    std::uint64_t hits = 0;
    for (int i = 0; i < kWarmReplays; ++i) {
        r.warmS.push_back(timed("driver", "Sweep::run (warm)", [&] {
            driver::Sweep s(spec);
            warm = s.run();
        }));
        hits += warm.cacheHits;
        if (!warm.allOk() || reportBytes(warm) != coldReport)
            r.errors.push_back("warm sweep report differs from the cold one");
    }
    r.hitFrac = static_cast<double>(hits) /
                static_cast<double>(kWarmReplays * points.size());
    if (r.hitFrac != 1.0)
        r.errors.push_back("warm sweep missed the run cache");

    for (const driver::RunOutcome& o : cold.runs) {
        const std::string tag =
            std::string(wkName(o.point.workload)) + "_" + o.point.config;
        const auto it = digests.find(tag);
        if (it != digests.end() && digestOf(o.stats) != it->second)
            r.errors.push_back("sweep stats of " + tag +
                               " differ from the direct run");
    }

    if (probes) {
        // Time the cache and the JSON reader on the cold pass's own
        // entries: read each back, parse it, publish it afresh.
        const cache::RunCache readCache({spec.cacheDir, 0});
        const cache::RunCache writeCache({(dir / "republish").string(), 0});
        const std::string& fingerprint = cache::RunCache::codeFingerprint();
        for (std::size_t i = 0; i < points.size(); ++i) {
            const std::string cell = driver::canonicalCell(spec, points[i]);
            const std::string key =
                cache::RunCache::keyFor(fingerprint, cell);
            std::string payload;
            bool hit = false;
            r.lookupS += timed("cache", "RunCache::lookup", [&] {
                hit = readCache.lookup(key, payload);
            });
            analysis::Json j;
            bool parsed = false;
            r.parseS += timed("analysis", "parseJson", [&] {
                parsed = analysis::parseJson(payload, j);
            });
            r.publishS += timed("cache", "RunCache::publish", [&] {
                writeCache.publish(key, cell, payload);
            });
            if (!hit || !parsed || !j.isObj() || !j.has("cycles") ||
                j.at("cycles").num != cold.runs[i].cycles)
                r.errors.push_back("cache entry of " + points[i].tag() +
                                   " does not read back");
        }
    }
    fs::remove_all(dir);
    return r;
}

// ---------------------------------------------------------------------
// Per-layer counters, summed over a pass's cells.

double
sumMatching(const Pass& p, const std::regex& re)
{
    double t = 0;
    for (const CellRun& c : p.cells) {
        for (const auto& [name, v] : c.stats.matchPrefix("lane")) {
            if (std::regex_match(name, re))
                t += v;
        }
    }
    return t;
}

/** Percentile @p q of a distribution merged over every cell. */
double
mergedPercentile(const Pass& p, const char* name, double q)
{
    Histogram merged;
    for (const CellRun& c : p.cells) {
        if (const Histogram* h = c.stats.histogram(name))
            merged.mergeFrom(*h);
    }
    return merged.count() == 0 ? 0.0 : merged.percentile(q);
}

void
layerCounters(const Pass& p, std::map<std::string, double>& m)
{
    const double cycles = p.stat("sim.cycles");
    const double ticks = p.stat("sim.host.ticksExecuted");
    const double laneCycles = [&] {
        double t = 0;
        for (const CellRun& c : p.cells)
            t += c.stats.getOr("delta.cycles", 0) *
                 c.stats.getOr("delta.lanes", 0);
        return t;
    }();
    double activeDen = 0; // cycles the core actually executed
    for (const CellRun& c : p.cells) {
        const double avg = c.stats.getOr("sim.host.avgActiveComponents", 0);
        if (avg > 0)
            activeDen += c.stats.getOr("sim.host.ticksExecuted", 0) / avg;
    }

    m["sim.ticks"] = ticks;
    m["sim.active_components"] = activeDen > 0 ? ticks / activeDen : 0;
    m["sim.ff_frac"] =
        cycles > 0 ? p.stat("sim.host.cyclesFastForwarded") / cycles : 0;

    m["cgra.firings"] = sumMatching(p, std::regex(R"(lane\d+\.fabric\.firings)"));
    m["cgra.active_cycles"] =
        sumMatching(p, std::regex(R"(lane\d+\.fabric\.activeCycles)"));
    m["cgra.reconfigs"] =
        sumMatching(p, std::regex(R"(lane\d+\.fabric\.reconfigs)"));

    m["stream.read_lines"] = sumMatching(p, std::regex(R"(lane\d+\.rd\d+\.lines)"));
    m["stream.read_tokens"] =
        sumMatching(p, std::regex(R"(lane\d+\.rd\d+\.tokens)"));
    m["stream.spm_reads"] =
        sumMatching(p, std::regex(R"(lane\d+\.rd\d+\.spmReads)"));
    m["stream.write_lines"] =
        sumMatching(p, std::regex(R"(lane\d+\.wr\d+\.lines)"));
    m["stream.write_chunks"] = sumMatching(
        p, std::regex(R"(lane\d+\.wr\d+\.(chunks|spatialChunks))"));
    m["stream.spm_port_stalls"] =
        sumMatching(p, std::regex(R"(lane\d+\.spm\.portStalls)"));

    m["mem.lines_read"] = p.stat("mem.linesRead");
    m["mem.lines_written"] = p.stat("mem.linesWritten");
    m["mem.bank_conflict_stalls"] = p.stat("mem.bankConflictStalls");
    m["mem.queue_wait.p50"] = mergedPercentile(p, "dram.queueWait", 0.50);
    m["mem.queue_wait.p99"] = mergedPercentile(p, "dram.queueWait", 0.99);

    m["noc.packets"] = p.stat("noc.injected");
    m["noc.word_hops"] = p.stat("noc.wordHops");
    m["noc.pkt_latency.p50"] = mergedPercentile(p, "noc.pktLatency", 0.50);
    m["noc.pkt_latency.p99"] = mergedPercentile(p, "noc.pktLatency", 0.99);
    m["noc.mcast_packets"] = p.stat("noc.mcast.packets");
    m["noc.mcast_word_hops_saved"] =
        p.stat("delta.attrib.multicast.wordHopsSaved");

    m["spatial.forwards"] = p.stat("delta.spatial.forwards");
    m["spatial.spills"] = p.stat("delta.spatial.spills");
    m["spatial.remaps"] = p.stat("delta.spatial.remaps");
    m["spatial.dram_lines_saved"] =
        p.stat("delta.attrib.spatial.dramLinesSaved");
    m["spatial.landing_lines"] = p.stat("delta.attrib.spatial.landingLines");

    m["task.completed"] = p.stat("dispatcher.tasksCompleted");
    m["task.spawned"] = p.stat("dispatcher.tasksSpawned");
    m["task.ready_wait.p50"] =
        mergedPercentile(p, "dispatcher.readyWait", 0.50);
    m["task.ready_wait.p99"] =
        mergedPercentile(p, "dispatcher.readyWait", 0.99);
    m["task.pipes_activated"] = p.stat("dispatcher.pipesActivated");
    m["task.pipe_overlap_cycles"] =
        p.stat("delta.attrib.pipeline.overlapCycles");
    m["task.groups_fired"] = p.stat("dispatcher.groupsFired");
    m["task.wait_fill_cycles"] =
        sumMatching(p, std::regex(R"(lane\d+\.tu\.waitFillCycles)"));

    for (const char* cls : {"busy", "memWait", "nocWait", "idle"}) {
        m[std::string("accel.frac.") + cls] =
            laneCycles > 0
                ? p.stat((std::string("delta.accounting.") + cls).c_str()) /
                      laneCycles
                : 0;
    }
    const double busyMean = p.stat("delta.busyMean");
    m["accel.imbalance"] =
        busyMean > 0 ? p.stat("delta.busyMax") / busyMean : 0;
    m["accel.critpath_util"] =
        cycles > 0 ? p.stat("delta.critpath.boundCycles") /
                         p.stat("delta.cycles")
                   : 0;
}

/** Host-profile shares of a profiled pass's outside-timed run time. */
void
hostShares(const Pass& p, std::map<std::string, Samples>& out)
{
    const double runNs = p.sum(&CellRun::runS) * 1e9;
    const auto share = [&](const char* bucket) {
        return p.stat((std::string("sim.host.profile.") + bucket + "Ns")
                          .c_str()) /
               runNs;
    };
    out["host.lane_frac"].add(share("tickLane"));
    out["host.noc_frac"].add(share("tickNoc"));
    out["host.mem_frac"].add(share("tickDram"));
    out["host.task_frac"].add(share("tickDispatcher"));
    out["host.sim_events_frac"].add(share("events"));
    out["host.sim_commit_frac"].add(share("commit"));
    out["host.sim_ff_frac"].add(share("fastForward"));
    out["host.sim_quiescence_frac"].add(share("quiescence"));
    double attributed = 0;
    for (const char* b : {"tickLane", "tickNoc", "tickDram", "tickDispatcher",
                          "tickOther", "events", "commit", "fastForward",
                          "quiescence"})
        attributed += share(b);
    out["host.unattributed_frac"].add(1.0 - attributed);
}

double
geomean(const std::vector<double>& xs)
{
    double s = 0;
    for (const double x : xs)
        s += std::log(x);
    return xs.empty() ? std::nan("") : std::exp(s / static_cast<double>(xs.size()));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

// ---------------------------------------------------------------------
// Command line.

struct Args
{
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 10;
    bool trace = false;
    double scaleFactor = 1.0;
    std::string workDir = "perfbench-work";
    std::string spansPath;
    bool describe = false;
};

[[noreturn]] void
usage(const std::string& err)
{
    std::cerr << "perfbench: " << err << "\n"
              << "usage: perfbench --workload NAME [--seed N] [--seconds S]"
                 " [--trace 0|1]\n"
                 "                 [--scale-factor X] [--work-dir DIR]"
                 " [--spans PATH]\n"
                 "       perfbench --describe\n"
                 "workloads:";
    for (const WorkloadDef& w : workloadDefs())
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--describe") {
            a.describe = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string val = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = val;
            } else if (flag == "--seed") {
                a.seed = std::stoull(val);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(val);
            } else if (flag == "--trace") {
                if (val != "0" && val != "1")
                    usage("--trace takes 0 or 1");
                a.trace = val == "1";
            } else if (flag == "--scale-factor") {
                a.scaleFactor = std::stod(val);
            } else if (flag == "--work-dir") {
                a.workDir = val;
            } else if (flag == "--spans") {
                a.spansPath = val;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + val);
        }
    }
    if (!a.describe && a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0) || !(a.scaleFactor > 0))
        usage("--seconds and --scale-factor must be positive");
    return a;
}

void
describe()
{
    std::printf("%-28s %-10s %-7s %-10s %s\n", "metric", "unit", "better",
                "layer", "kind");
    for (const MetricDef& m : kEndToEnd)
        std::printf("%-28s %-10s %-7s %-10s end_to_end\n", m.name, m.unit,
                    m.better, m.layer);
    for (const MetricDef& m : kPerLayer)
        std::printf("%-28s %-10s %-7s %-10s per_layer\n", m.name, m.unit,
                    m.better, m.layer);
    for (const WorkloadDef& w : workloadDefs())
        std::printf("workload %s\n", w.name);
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.describe) {
        describe();
        return 0;
    }
    const WorkloadDef* def = nullptr;
    for (const WorkloadDef& w : workloadDefs()) {
        if (w.name == args.workload)
            def = &w;
    }
    if (def == nullptr)
        usage("unknown workload '" + args.workload + "'");

    const double scale = def->scale * args.scaleFactor;
    std::vector<Cell> cells;
    for (const Wk wk : def->wks) {
        for (const std::string& c : def->configs)
            cells.push_back({wk, c, scale});
    }
    const fs::path workDir = args.workDir;
    spanLog.on = args.trace;

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    const auto fail = [&](const std::string& what) {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    };

    // Static reference cycles (untimed) for the speedup, unless the
    // pass itself runs the static cells.
    std::map<Wk, double> staticCycles;
    for (const Wk wk : def->wks) {
        if (std::find(def->configs.begin(), def->configs.end(), "static") !=
            def->configs.end())
            continue;
        const CellRun ref = runCell({wk, "static", scale}, args.seed,
                                    false, false);
        ++attempted;
        if (!ref.error.empty())
            fail(std::string(wkName(wk)) + "_static reference: " + ref.error);
        staticCycles[wk] = ref.stats.getOr("delta.cycles", std::nan(""));
    }

    // Warm-up: establishes each cell's reference stats; not timed.
    std::map<std::string, std::string> digests;
    const Pass warm = runPass(cells, args.seed, false, args.trace);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        ++attempted;
        const CellRun& r = warm.cells[i];
        if (!r.error.empty())
            fail(cells[i].tag() + ": " + r.error);
        digests[cells[i].tag()] = digestOf(r.stats);
        if (cells[i].config == "static")
            staticCycles[cells[i].wk] = r.stats.getOr("delta.cycles", 0);
    }

    std::map<std::string, Samples> t; // timing samples by metric name
    const auto checkPass = [&](const Pass& p) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            ++attempted;
            const CellRun& r = p.cells[i];
            if (!r.error.empty())
                fail(cells[i].tag() + ": " + r.error);
            else if (digestOf(r.stats) != digests[cells[i].tag()])
                fail(cells[i].tag() + ": stats differ between repetitions");
        }
    };
    const auto sweepRound = [&](int round) {
        const SweepRound s =
            runSweepRound(*def, args.seed, scale,
                          workDir / ("round" + std::to_string(round)),
                          args.trace, digests);
        attempted += (1 + kWarmReplays) * s.points;
        for (const std::string& e : s.errors)
            fail(e);
        return s;
    };
    sweepRound(0);

    // A timed pass keeps only its timings once its stats have been
    // checked against the warm-up's.
    std::vector<Pass> passes, profiled;
    const auto keepTimings = [](Pass p, std::vector<Pass>& into) {
        for (CellRun& c : p.cells)
            c.stats.clear();
        into.push_back(std::move(p));
    };
    const auto t0 = Clock::now();
    int rounds = 0;
    while (rounds == 0 || secondsBetween(t0, Clock::now()) < args.seconds) {
        ++rounds;
        Pass p = runPass(cells, args.seed, false, args.trace);
        checkPass(p);
        keepTimings(std::move(p), passes);

        if (args.trace) {
            Pass prof = runPass(cells, args.seed, true, false);
            checkPass(prof);
            hostShares(prof, t);
            keepTimings(std::move(prof), profiled);
        }

        const SweepRound s = sweepRound(rounds);
        t["sweep_cold_s"].add(s.coldS);
        for (const double w : s.warmS)
            t["sweep_warm_s"].add(w);
        t["cache.lookup_s"].add(s.lookupS);
        t["cache.publish_s"].add(s.publishS);
        t["analysis.parse_s"].add(s.parseS);
        t["cache.hit_frac"].add(s.hitFrac);
    }
    fs::remove_all(workDir);

    // Assemble the metrics.
    std::map<std::string, double> m;
    for (const auto& [name, s] : t)
        m[name] = s.median();
    // Pass timings are sums of per-cell medians; the pass totals are
    // kept only for the printed range and tail.
    const std::vector<std::pair<const char*, double CellRun::*>> cellTimings = {
        {"pass_s", &CellRun::wallS},
        {"setup_s", &CellRun::setupS},
        {"workloads.build_s", &CellRun::buildS},
        {"workloads.check_s", &CellRun::checkS},
        {"accel.ctor_s", &CellRun::ctorS},
        {"accel.run_s", &CellRun::runS},
        {"cgra.map_s", &CellRun::cgraMapS},
        {"spatial.map_s", &CellRun::spatialMapS},
    };
    for (const auto& [name, field] : cellTimings) {
        m[name] = sumOfCellMedians(passes, field);
        for (const Pass& p : passes)
            t[name].add(p.sum(field));
    }
    const double runS = m["accel.run_s"];
    m["sim_cycles_per_s"] = warm.stat("sim.cycles") / runS;
    m["sim.ns_per_tick"] = runS * 1e9 / warm.stat("sim.host.ticksExecuted");
    if (args.trace)
        m["host.trace_overhead"] =
            sumOfCellMedians(profiled, &CellRun::runS) / runS;

    std::vector<double> cyc, speedups;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const double c = warm.cells[i].stats.getOr("delta.cycles", 0);
        cyc.push_back(c);
        if (cells[i].config == def->speedupConfig)
            speedups.push_back(staticCycles[cells[i].wk] / c);
    }
    m["sim_cycles"] = geomean(cyc);
    m["speedup_vs_static"] = geomean(speedups);
    m["peak_rss_mb"] = peakRssMb();
    layerCounters(warm, m);

    const bool correct = failed == 0;
    const double failedFrac =
        static_cast<double>(failed) / static_cast<double>(attempted);

    // Human-readable table, then the result line.
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "scale=%g cells=%zu rounds=%d\n",
                def->name, static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, scale, cells.size(),
                rounds);
    const std::vector<MetricDef>& shown = args.trace ? kPerLayer : kEndToEnd;
    std::printf("%-28s %16s %-9s %-7s %-10s %s\n", "metric", "value",
                "unit", "better", "layer", "samples");
    for (const MetricDef& d : shown) {
        const std::string name = d.name;
        std::string samples = "exact";
        if (name == "peak_rss_mb")
            samples = "at exit";
        else if (name == "sim_cycles_per_s" || name == "sim.ns_per_tick" ||
                 name == "host.trace_overhead")
            samples = "derived from accel.run_s";
        const auto it = t.find(name);
        if (it != t.end()) {
            const std::vector<double>& v = it->second.v;
            const bool perCell = std::any_of(
                cellTimings.begin(), cellTimings.end(),
                [&](const auto& c) { return name == c.first; });
            char buf[128];
            std::snprintf(buf, sizeof buf,
                          perCell ? "sum of per-cell medians over n=%zu "
                                    "passes, pass totals %.4g..%.4g"
                                  : "median of n=%zu, range %.4g..%.4g",
                          v.size(), *std::min_element(v.begin(), v.end()),
                          *std::max_element(v.begin(), v.end()));
            samples = buf;
            if (const auto tail = it->second.tail()) {
                std::snprintf(buf, sizeof buf, ", p%.0f=%.6g", tail->first,
                              tail->second);
                samples += buf;
            }
        }
        std::printf("%-28s %16.6g %-9s %-7s %-10s %s\n", d.name, m[d.name],
                    d.unit, d.better, d.layer, samples.c_str());
    }
    std::printf("%-28s %16.6g %-9s %-7s %-10s %llu of %llu\n", "failed_frac",
                failedFrac, "fraction", "lower", "bench",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    for (const std::string& f : failures)
        std::printf("FAILED: %s\n", f.c_str());

    if (args.trace) {
        std::printf("self time by layer (s):");
        for (const auto& [layer, s] : selfTimeByLayer())
            std::printf(" %s=%.4f", layer.c_str(), s);
        std::printf("\n");
        const std::string path =
            args.spansPath.empty()
                ? "perfbench-spans-" + std::string(def->name) + ".json"
                : args.spansPath;
        writeSpans(path);
        std::printf("spans: %zu written to %s\n", spanLog.spans.size(),
                    path.c_str());
    }

    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& d : shown) {
        os << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
           << jsonNumber(m[d.name]) << ", \"unit\": \"" << d.unit << "\"}";
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return correct ? 0 : 1;
}
