/**
 * @file
 * Tests for the structure-recovery analyzer: histogram statistics
 * (log buckets, percentiles, derived StatSet entries), JSON key
 * escaping and non-finite handling in dumps, the analysis JSON
 * reader and report renderer, per-mechanism attribution consistency
 * on irregular workloads, critical-path bounds, workload-name
 * parsing, cycle-accounting aggregates on asymmetric multi-lane
 * configurations (including a lane that never fires), and the
 * shortest-round-trip JSON number formatting the run cache's
 * byte-replay guarantee leans on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "accel/delta.hh"
#include "analysis/json.hh"
#include "analysis/report.hh"
#include "sim/logging.hh"
#include "trace/accounting.hh"
#include "workloads/workload.hh"

namespace ts
{
namespace
{

using analysis::Json;
using analysis::parseJson;
using analysis::RunStats;

// ---------------------------------------------------------------------
// Histogram units
// ---------------------------------------------------------------------

TEST(AnalysisHistogram, LogBucketsCoverFullRange)
{
    Histogram h; // default: 0, 1, 2, 4, ... 2^46
    h.sample(0);
    h.sample(1);
    h.sample(3);
    h.sample(1e12);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 1e12);
    EXPECT_NEAR(h.mean(), (0 + 1 + 3 + 1e12) / 4, 1e-3);
}

TEST(AnalysisHistogram, PercentilesAreMonotonicAndClamped)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.sample(i);
    const double p50 = h.percentile(0.50);
    const double p95 = h.percentile(0.95);
    const double p99 = h.percentile(0.99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, h.max());
    EXPECT_GE(p50, h.min());
    // Log buckets bound the relative error by the bucket ratio (2x).
    EXPECT_GE(p50, 250.0);
    EXPECT_LE(p50, 1000.0);
    EXPECT_EQ(h.percentile(0.0), h.min());
    EXPECT_EQ(h.percentile(1.0), h.max());
}

TEST(AnalysisHistogram, EmptyHistogramIsZeros)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(AnalysisHistogram, StatSetSampleDerivesDottedStats)
{
    StatSet s;
    for (int i = 1; i <= 100; ++i)
        s.sample("lat", i);
    EXPECT_EQ(s.get("lat.count"), 100.0);
    EXPECT_NEAR(s.get("lat.mean"), 50.5, 1e-9);
    EXPECT_EQ(s.get("lat.min"), 1.0);
    EXPECT_EQ(s.get("lat.max"), 100.0);
    EXPECT_LE(s.get("lat.p50"), s.get("lat.p95"));
    EXPECT_LE(s.get("lat.p95"), s.get("lat.p99"));
    EXPECT_LE(s.get("lat.p99"), s.get("lat.max"));

    // Derived stats participate in prefix queries and dumps.
    EXPECT_EQ(s.matchPrefix("lat.").size(), 7u);
    ASSERT_NE(s.histogram("lat"), nullptr);
    EXPECT_EQ(s.histogram("lat")->count(), 100u);
    EXPECT_EQ(s.histogramNames(),
              std::vector<std::string>{"lat"});

    // More samples refresh the derived values.
    s.sample("lat", 1000);
    EXPECT_EQ(s.get("lat.count"), 101.0);
    EXPECT_EQ(s.get("lat.max"), 1000.0);
}

TEST(AnalysisHistogram, StatSampleRoutesToActiveSet)
{
    // A probe samples only into the set it was built with; one that
    // never samples adds no key.
    StatSet own, other;
    StatProbe probe(own, "probe");
    StatProbe idle(other, "idle");
    probe.sample(42.0);
    EXPECT_EQ(own.get("probe.count"), 1.0);
    EXPECT_EQ(own.get("probe.max"), 42.0);
    EXPECT_EQ(other.histogram("probe"), nullptr);
    EXPECT_EQ(other.histogram("idle"), nullptr);
    EXPECT_EQ(other.size(), 0u);
}

// ---------------------------------------------------------------------
// JSON: escaping, non-finite values, the analysis reader
// ---------------------------------------------------------------------

TEST(AnalysisJson, DumpEscapesKeysAndParsesBack)
{
    StatSet s;
    s.set("plain.key", 1);
    s.set("quote\"back\\slash", 2);
    s.set("tab\tnewline\ncontrol\x01", 3);
    std::ostringstream os;
    s.dumpJson(os);

    Json doc;
    ASSERT_TRUE(parseJson(os.str(), doc)) << os.str();
    ASSERT_TRUE(doc.isObj());
    EXPECT_EQ(doc.at("plain.key").num, 1.0);
    EXPECT_EQ(doc.at("quote\"back\\slash").num, 2.0);
    // \x01 is emitted as  and decoded back.
    EXPECT_EQ(doc.at("tab\tnewline\ncontrol\x01").num, 3.0);
}

TEST(AnalysisJson, NonFiniteValuesSerializeAsNull)
{
    StatSet s;
    s.set("nan", std::nan(""));
    s.set("inf", std::numeric_limits<double>::infinity());
    s.set("ok", 5);
    std::ostringstream os;
    s.dumpJson(os);

    Json doc;
    ASSERT_TRUE(parseJson(os.str(), doc)) << os.str();
    EXPECT_EQ(doc.at("nan").kind, Json::Kind::Null);
    EXPECT_EQ(doc.at("inf").kind, Json::Kind::Null);
    EXPECT_EQ(doc.at("ok").num, 5.0);

    // statsFromJson drops the null entries rather than mangling them.
    const RunStats rs = analysis::statsFromJson(doc);
    EXPECT_FALSE(rs.has("nan"));
    EXPECT_FALSE(rs.has("inf"));
    EXPECT_EQ(rs.getOr("ok"), 5.0);
}

TEST(AnalysisJson, ReaderHandlesStandardShapes)
{
    Json doc;
    ASSERT_TRUE(parseJson(
        R"({"a": [1, 2.5, -3e2], "b": {"t": true, "f": false},
            "n": null, "s": "xAy"})",
        doc));
    EXPECT_EQ(doc.at("a").arr.size(), 3u);
    EXPECT_EQ(doc.at("a").arr[2].num, -300.0);
    EXPECT_TRUE(doc.at("b").at("t").b);
    EXPECT_EQ(doc.at("n").kind, Json::Kind::Null);
    EXPECT_EQ(doc.at("s").str, "xAy");

    Json bad;
    EXPECT_FALSE(parseJson("{\"unterminated\": ", bad));
    EXPECT_FALSE(parseJson("{} trailing", bad));
}

TEST(AnalysisJson, BenchWrapperCarriesMetadata)
{
    Json doc;
    ASSERT_TRUE(parseJson(
        R"({"workload": "spmv", "config": "delta", "lanes": 8,
            "correct": true, "stats": {"delta.cycles": 123}})",
        doc));
    const RunStats rs = analysis::statsFromJson(doc);
    EXPECT_EQ(rs.workload, "spmv");
    EXPECT_EQ(rs.config, "delta");
    EXPECT_EQ(rs.getOr("delta.cycles"), 123.0);
}

// ---------------------------------------------------------------------
// Suite runner: workload names
// ---------------------------------------------------------------------

TEST(AnalysisSuite, WorkloadNamesRoundTrip)
{
    for (const Wk w : allWorkloads())
        EXPECT_EQ(wkFromName(wkName(w)), w);
}

TEST(AnalysisSuite, UnknownWorkloadListsValidNames)
{
    try {
        wkFromName("bogus");
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("bogus"), std::string::npos);
        EXPECT_NE(what.find("valid workloads"), std::string::npos);
        for (const Wk w : allWorkloads())
            EXPECT_NE(what.find(wkName(w)), std::string::npos);
    }
}

TEST(AnalysisSuite, WorkloadListParsing)
{
    EXPECT_EQ(workloadsFromList(""), allWorkloads());
    EXPECT_EQ(workloadsFromList("all"), allWorkloads());
    const std::vector<Wk> two = workloadsFromList(" spmv , msort ");
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0], Wk::Spmv);
    EXPECT_EQ(two[1], Wk::Msort);
    EXPECT_THROW(workloadsFromList("spmv,junk"), FatalError);
    EXPECT_THROW(workloadsFromList(" , "), FatalError);
}

// ---------------------------------------------------------------------
// End-to-end attribution and histogram consistency
// ---------------------------------------------------------------------

StatSet
runSuiteWorkload(Wk w, const DeltaConfig& cfg, double scale)
{
    SuiteParams sp;
    sp.scale = scale;
    auto wl = makeWorkload(w, sp);
    Delta delta(cfg);
    TaskGraph graph;
    wl->build(delta, graph);
    StatSet stats = delta.run(graph);
    EXPECT_TRUE(wl->check(delta.image())) << wkName(w);
    return stats;
}

void
checkAttributionInvariants(const StatSet& s)
{
    // Load balance: avoided = max(0, shadow - actual), by definition.
    const double shadow =
        s.get("delta.attrib.loadbalance.shadowStaticMaxService");
    const double actual =
        s.get("delta.attrib.loadbalance.actualMaxService");
    const double avoided =
        s.get("delta.attrib.loadbalance.imbalanceCyclesAvoided");
    EXPECT_NEAR(avoided, std::max(0.0, shadow - actual), 1e-9);
    EXPECT_GE(actual, 0.0);

    // Multicast: saved = max(0, unicast-equivalent - actual).
    const double fill = s.get("delta.attrib.multicast.fillLines");
    const double equiv =
        s.get("delta.attrib.multicast.unicastLinesEquiv");
    const double saved =
        s.get("delta.attrib.multicast.dramLinesSaved");
    EXPECT_NEAR(saved, std::max(0.0, equiv - fill), 1e-9);
    EXPECT_NEAR(s.get("delta.attrib.multicast.dramBytesSaved"),
                saved * lineBytes, 1e-9);
    const double hopsSaved =
        s.get("delta.attrib.multicast.wordHopsSaved");
    EXPECT_NEAR(hopsSaved,
                std::max(0.0,
                         s.get("delta.attrib.multicast."
                               "unicastEquivWordHops") -
                             s.get("delta.attrib.multicast.wordHops")),
                1e-9);

    // Pipeline overlap is a non-negative cycle count.
    EXPECT_GE(s.get("delta.attrib.pipeline.overlapCycles"), 0.0);

    // Critical path: path <= serial work; bound >= both components.
    const double path = s.get("delta.critpath.cycles");
    const double serial = s.get("delta.critpath.serialCycles");
    const double bound = s.get("delta.critpath.boundCycles");
    const double lanes = s.get("delta.lanes");
    EXPECT_LE(path, serial);
    EXPECT_GE(bound, path);
    EXPECT_GE(bound + 1, serial / lanes);

    // Histogram consistency: per-type service counts sum to the
    // completed-task count, and percentiles are ordered.
    double typeCount = 0;
    for (const auto& [name, value] : s.matchPrefix("task.")) {
        const std::string suffix = ".serviceCycles.count";
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            typeCount += value;
            const std::string base =
                name.substr(0, name.size() - std::string("count").size());
            EXPECT_LE(s.get(base + "min"), s.get(base + "mean"));
            EXPECT_LE(s.get(base + "mean"), s.get(base + "max"));
            EXPECT_LE(s.get(base + "p50"), s.get(base + "p95"));
            EXPECT_LE(s.get(base + "p95"), s.get(base + "p99"));
            EXPECT_LE(s.get(base + "p99"), s.get(base + "max"));
        }
    }
    EXPECT_EQ(typeCount, s.get("dispatcher.tasksCompleted"));

    // Only tasks that pass through the ready queue sample readyWait
    // (pipeline co-dispatch bypasses it), so count is bounded.
    EXPECT_LE(s.get("dispatcher.readyWait.count"),
              s.get("dispatcher.tasksCompleted"));
    EXPECT_GE(s.get("dispatcher.readyWait.count"), 1.0);
}

TEST(AnalysisAttribution, MulticastWorkloadHasNonzeroSavings)
{
    // spmv annotates shared reads of the dense vector: the multicast
    // group must fire and save DRAM lines vs. unicast replay.
    const StatSet s =
        runSuiteWorkload(Wk::Spmv, DeltaConfig::delta(4), 0.25);
    checkAttributionInvariants(s);
    EXPECT_GT(s.get("dispatcher.groupsFired"), 0.0);
    EXPECT_GT(s.get("delta.attrib.multicast.dramLinesSaved"), 0.0);
    EXPECT_GT(s.get("noc.mcast.packets"), 0.0);
}

TEST(AnalysisAttribution, PipelineWorkloadHasNonzeroOverlap)
{
    // msort's merge tree is pipelined: activated pipes must recover
    // producer/consumer overlap cycles.
    const StatSet s =
        runSuiteWorkload(Wk::Msort, DeltaConfig::delta(4), 0.25);
    checkAttributionInvariants(s);
    EXPECT_GT(s.get("delta.attrib.pipeline.pipesActivated"), 0.0);
    EXPECT_GT(s.get("delta.attrib.pipeline.overlapCycles"), 0.0);
}

TEST(AnalysisAttribution, StaticBaselineRespectsCritPathBound)
{
    // Without pipelining, no task overlaps its dependence
    // predecessors, so the measured critical-path bound is a true
    // lower bound on the achieved cycle count.
    const StatSet s = runSuiteWorkload(
        Wk::Spmv, DeltaConfig::staticBaseline(4), 0.25);
    checkAttributionInvariants(s);
    EXPECT_LE(s.get("delta.critpath.boundCycles"),
              s.get("delta.cycles"));
    // The baseline recovers nothing: no pipes, no multicast.
    EXPECT_EQ(s.get("delta.attrib.pipeline.pipesActivated"), 0.0);
    EXPECT_EQ(s.get("delta.attrib.multicast.fillLines"), 0.0);
}

TEST(AnalysisAttribution, ProbesInactiveOutsideRun)
{
    // The run's probes sample into the set Delta::run returns, and
    // a probe the run never samples adds no key: a non-spatial run
    // releases no spatial group.
    const StatSet s =
        runSuiteWorkload(Wk::Centroid, DeltaConfig::delta(2), 0.25);
    EXPECT_GT(s.get("noc.pktLatency.count"), 0.0);
    EXPECT_GT(s.get("dram.queueWait.count"), 0.0);
    EXPECT_EQ(s.histogram("spatial.groupPeakWords"), nullptr);
    EXPECT_FALSE(s.has("spatial.groupPeakWords.count"));
}

// ---------------------------------------------------------------------
// Cycle accounting on asymmetric configurations
// ---------------------------------------------------------------------

/** Run a tiny elementwise workload with a chosen task count. */
StatSet
runTinyGraph(std::uint32_t lanes, std::size_t tasks)
{
    Delta delta(DeltaConfig::delta(lanes));
    MemImage& img = delta.image();

    auto dfg = std::make_unique<Dfg>("inc");
    const auto x = dfg->addInput();
    const auto a =
        dfg->add(Op::Add, Operand::ref(x), Operand::immI(1));
    dfg->addOutput(a);
    const TaskTypeId inc =
        delta.registry().addDfgType("inc", std::move(dfg));

    const std::size_t chunk = 64;
    const std::size_t n = chunk * tasks;
    const Addr in = img.allocWords(n);
    const Addr out = img.allocWords(n);
    for (std::size_t i = 0; i < n; ++i)
        img.writeInt(in + i * wordBytes, static_cast<std::int64_t>(i));

    TaskGraph graph;
    for (std::size_t t = 0; t < tasks; ++t) {
        WriteDesc dst;
        dst.base = out + t * chunk * wordBytes;
        graph.addTask(
            inc,
            {StreamDesc::linear(Space::Dram,
                                in + t * chunk * wordBytes, chunk)},
            {dst});
    }
    StatSet stats = delta.run(graph);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(img.readInt(out + i * wordBytes),
                  static_cast<std::int64_t>(i) + 1);
    }
    return stats;
}

void
checkBucketsSumPerLane(const StatSet& s, std::uint32_t lanes)
{
    const double cycles = s.get("delta.cycles");
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const std::string prefix =
            "lane" + std::to_string(l) + ".tu.cycles.";
        double sum = 0;
        for (std::size_t c = 0; c < kNumCycleClasses; ++c) {
            sum += s.get(prefix +
                         cycleClassName(static_cast<CycleClass>(c)));
        }
        EXPECT_EQ(sum, cycles) << "lane " << l;
    }
}

TEST(AnalysisAccounting, BucketsSumOnAsymmetricLaneCounts)
{
    // Lane counts that don't divide the task count (3 and 5) leave
    // unequal shares; the per-lane invariant must hold regardless.
    for (const std::uint32_t lanes : {3u, 5u}) {
        const StatSet s = runTinyGraph(lanes, 7);
        checkBucketsSumPerLane(s, lanes);
        checkAttributionInvariants(s);
    }
}

TEST(AnalysisAccounting, LaneThatNeverFiresIsAllIdle)
{
    // 2 tasks on 5 lanes: at least three lanes never run anything,
    // yet their buckets must still account for every cycle.
    const std::uint32_t lanes = 5;
    const StatSet s = runTinyGraph(lanes, 2);
    checkBucketsSumPerLane(s, lanes);

    const double cycles = s.get("delta.cycles");
    std::uint32_t idleLanes = 0;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const std::string prefix = "lane" + std::to_string(l) + ".tu.";
        if (s.get(prefix + "tasksRun") == 0.0) {
            ++idleLanes;
            EXPECT_EQ(s.get(prefix + "cycles.busy"), 0.0);
            EXPECT_EQ(s.get(prefix + "cycles.idle"), cycles);
        }
    }
    EXPECT_GE(idleLanes, 3u);
}

// ---------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------

RunStats
toRunStats(const StatSet& s)
{
    std::ostringstream os;
    s.dumpJson(os);
    Json doc;
    EXPECT_TRUE(parseJson(os.str(), doc));
    return analysis::statsFromJson(doc);
}

TEST(AnalysisReport, PrintsAllSectionsFromRealRun)
{
    const StatSet stats =
        runSuiteWorkload(Wk::Spmv, DeltaConfig::delta(4), 0.25);
    const RunStats run = toRunStats(stats);

    std::ostringstream os;
    analysis::printReport(os, run);
    const std::string text = os.str();
    EXPECT_NE(text.find("Cycle accounting"), std::string::npos);
    EXPECT_NE(text.find("Mechanism attribution"), std::string::npos);
    EXPECT_NE(text.find("Critical path"), std::string::npos);
    EXPECT_NE(text.find("Slowest task types"), std::string::npos);
    EXPECT_NE(text.find("loadbalance"), std::string::npos);
    EXPECT_NE(text.find("pipeline"), std::string::npos);
    EXPECT_NE(text.find("multicast"), std::string::npos);
}

TEST(AnalysisReport, SpeedupAgainstBaseline)
{
    const RunStats dyn = toRunStats(
        runSuiteWorkload(Wk::Spmv, DeltaConfig::delta(4), 0.25));
    const RunStats sta = toRunStats(runSuiteWorkload(
        Wk::Spmv, DeltaConfig::staticBaseline(4), 0.25));

    const double x = analysis::speedupVs(dyn, sta);
    EXPECT_GT(x, 1.0) << "delta must beat the static baseline";

    std::ostringstream os;
    analysis::ReportOptions opt;
    opt.baseline = &sta;
    analysis::printReport(os, dyn, opt);
    EXPECT_NE(os.str().find("Speedup vs baseline"), std::string::npos);
}

TEST(AnalysisReport, SlowestTaskTypesSortedByP95)
{
    RunStats s;
    s.values["task.a.serviceCycles.count"] = 4;
    s.values["task.a.serviceCycles.p95"] = 100;
    s.values["task.b.serviceCycles.count"] = 4;
    s.values["task.b.serviceCycles.p95"] = 300;
    s.values["task.c.serviceCycles.count"] = 4;
    s.values["task.c.serviceCycles.p95"] = 200;
    const auto rows = analysis::slowestTaskTypes(s, 2);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].type, "b");
    EXPECT_EQ(rows[1].type, "c");
}

// ---------------------------------------------------------------------
// JSON number formatting
// ---------------------------------------------------------------------

TEST(JsonNumberTest, ShortestRoundTrip)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(0.1), "0.1");
    EXPECT_EQ(jsonNumber(-3.5), "-3.5");
    // NaN/inf are not JSON numbers; the canonical form is null.
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
}

TEST(JsonNumberTest, DumpParseDumpIsIdempotent)
{
    const double values[] = {0.0,     1.0 / 3.0, 1e-9, 6.02214076e23,
                             12345.0, 0.30000000000000004};
    for (const double v : values) {
        const std::string once = jsonNumber(v);
        char* end = nullptr;
        const double parsed = std::strtod(once.c_str(), &end);
        ASSERT_EQ(*end, '\0') << once;
        EXPECT_EQ(jsonNumber(parsed), once)
            << "formatting must round-trip through parse exactly";
    }
}

} // namespace
} // namespace ts
