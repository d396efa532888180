/**
 * @file
 * Unit tests for the tracing subsystem: span nesting, counter tracks,
 * JSON well-formedness (the emitted file is parsed back with a small
 * JSON reader), disabled-tracer behaviour, and an end-to-end traced
 * accelerator run whose cycle count must be bit-identical to the
 * untraced run and whose cycle-accounting buckets must sum to the
 * total cycle count on every lane.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "accel/delta.hh"
#include "driver/options.hh"
#include "driver/sweep.hh"
#include "noc/noc.hh"
#include "trace/accounting.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace ts
{
namespace
{

// ---------------------------------------------------------------------
// A minimal JSON reader, just enough to validate and inspect traces.
// ---------------------------------------------------------------------

struct Json
{
    enum class Kind { Null, Bool, Num, Str, Arr, Obj };
    Kind kind = Kind::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    bool has(const std::string& key) const { return obj.count(key) != 0; }
    const Json& at(const std::string& key) const { return obj.at(key); }
};

class JsonReader
{
  public:
    explicit JsonReader(std::string text) : s_(std::move(text)) {}

    bool
    parse(Json& out)
    {
        skip();
        if (!value(out))
            return false;
        skip();
        return pos_ == s_.size();
    }

  private:
    bool
    value(Json& out)
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object(out);
          case '[': return array(out);
          case '"': out.kind = Json::Kind::Str; return string(out.str);
          case 't': out.kind = Json::Kind::Bool; out.b = true;
                    return literal("true");
          case 'f': out.kind = Json::Kind::Bool; out.b = false;
                    return literal("false");
          case 'n': out.kind = Json::Kind::Null; return literal("null");
          default: return number(out);
        }
    }

    bool
    object(Json& out)
    {
        out.kind = Json::Kind::Obj;
        ++pos_; // '{'
        skip();
        if (peek('}'))
            return true;
        for (;;) {
            std::string key;
            skip();
            if (pos_ >= s_.size() || s_[pos_] != '"' || !string(key))
                return false;
            skip();
            if (pos_ >= s_.size() || s_[pos_++] != ':')
                return false;
            skip();
            Json v;
            if (!value(v))
                return false;
            out.obj.emplace(std::move(key), std::move(v));
            skip();
            if (peek('}'))
                return true;
            if (pos_ >= s_.size() || s_[pos_++] != ',')
                return false;
        }
    }

    bool
    array(Json& out)
    {
        out.kind = Json::Kind::Arr;
        ++pos_; // '['
        skip();
        if (peek(']'))
            return true;
        for (;;) {
            skip();
            Json v;
            if (!value(v))
                return false;
            out.arr.push_back(std::move(v));
            skip();
            if (peek(']'))
                return true;
            if (pos_ >= s_.size() || s_[pos_++] != ',')
                return false;
        }
    }

    bool
    string(std::string& out)
    {
        ++pos_; // opening quote
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return false;
                const char e = s_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'u':
                    if (pos_ + 4 > s_.size())
                        return false;
                    pos_ += 4;
                    out += '?';
                    break;
                  default: return false;
                }
            } else {
                out += c;
            }
        }
        return false;
    }

    bool
    number(Json& out)
    {
        const char* start = s_.c_str() + pos_;
        char* end = nullptr;
        out.num = std::strtod(start, &end);
        if (end == start)
            return false;
        out.kind = Json::Kind::Num;
        pos_ += static_cast<std::size_t>(end - start);
        return true;
    }

    bool
    literal(const char* lit)
    {
        const std::size_t n = std::string(lit).size();
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    peek(char c)
    {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    skip()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    std::string s_;
    std::size_t pos_ = 0;
};

std::string
slurp(const std::string& path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Parse a trace file and return its traceEvents array. */
std::vector<Json>
loadEvents(const std::string& path)
{
    Json root;
    JsonReader reader(slurp(path));
    EXPECT_TRUE(reader.parse(root)) << path << " is not valid JSON";
    EXPECT_EQ(root.kind, Json::Kind::Obj);
    EXPECT_TRUE(root.has("traceEvents"));
    return root.at("traceEvents").arr;
}

std::string
tmpPath(const char* name)
{
    return testing::TempDir() + name;
}

// ---------------------------------------------------------------------
// Tracer unit tests.
// ---------------------------------------------------------------------

TEST(Trace, DisabledTracerEmitsNothing)
{
    const std::string path = tmpPath("ts_trace_disabled.json");
    std::remove(path.c_str());
    {
        trace::TracerConfig cfg;
        cfg.path = path; // enabled stays false
        trace::Tracer t(cfg);
        EXPECT_FALSE(t.enabled());

        // A disabled tracer counts as none: sites see no tracer.
        Simulator sim;
        sim.setTracer(&t);
        EXPECT_EQ(sim.tracer(), nullptr);

        t.begin(t.track("lane0"), "task");
        t.end(t.track("lane0"));
        t.counter("q", "depth", 3);
        t.finish();
        EXPECT_EQ(t.events(), 0u);
    }
    std::ifstream in(path);
    EXPECT_FALSE(in.good()) << "disabled tracer must not create a file";
}

/** A component that exposes the tracer its simulator hands it. */
struct TracerProbe : Ticked
{
    TracerProbe() : Ticked("probe") {}
    void tick(Tick) override {}
    bool busy() const override { return false; }
    using Ticked::tracer;
};

TEST(Trace, ActivationFollowsEnabledTracerOnly)
{
    trace::TracerConfig cfg;
    cfg.enabled = true;
    cfg.path = tmpPath("ts_trace_active.json");
    trace::Tracer t(cfg);
    ASSERT_TRUE(t.enabled());

    Simulator sim;
    TracerProbe component;
    sim.setTracer(&t);
    EXPECT_EQ(sim.tracer(), &t);
    EXPECT_EQ(component.tracer(), nullptr) << "not registered yet";
    sim.add(&component);
    EXPECT_EQ(component.tracer(), &t);
    sim.setTracer(nullptr);
    EXPECT_EQ(sim.tracer(), nullptr);
    EXPECT_EQ(component.tracer(), nullptr);
    sim.setTracer(&t);
    EXPECT_EQ(component.tracer(), &t);
}

/** Instant events on the track named @p track. */
std::size_t
instantsOnTrack(const std::vector<Json>& events, const std::string& track)
{
    double tid = -1;
    for (const Json& e : events) {
        if (e.at("ph").str == "M" && e.at("name").str == "thread_name" &&
            e.at("args").at("name").str == track)
            tid = e.at("tid").num;
    }
    return static_cast<std::size_t>(
        std::count_if(events.begin(), events.end(), [&](const Json& e) {
            return e.at("ph").str == "i" && e.at("tid").num == tid;
        }));
}

TEST(Trace, TwoSimulatorsOnOneThreadKeepTheirOwnSinks)
{
    // Each simulator holds its own tracer and stat set, so two meshes
    // stepped alternately on one thread never see each other's
    // events or samples.
    const auto enabledAt = [](const std::string& path) {
        trace::TracerConfig cfg;
        cfg.enabled = true;
        cfg.path = path;
        return cfg;
    };
    const std::string pathA = tmpPath("ts_trace_mesh_a.json");
    const std::string pathB = tmpPath("ts_trace_mesh_b.json");
    trace::Tracer tracerA(enabledAt(pathA)), tracerB(enabledAt(pathB));
    Simulator simA, simB;
    simA.setTracer(&tracerA);
    simB.setTracer(&tracerB);
    Noc nocA(simA, NocConfig{4, 4, 4, 2});
    Noc nocB(simB, NocConfig{4, 4, 4, 2});

    const auto toNode = [](std::uint32_t dst) {
        Packet p;
        p.src = 0;
        p.dstMask = Packet::unicast(dst);
        p.kind = PktKind::Generic;
        p.sizeWords = 1;
        return p;
    };
    ASSERT_TRUE(nocA.inject(toNode(15)));
    for (const std::uint32_t dst : {5u, 10u, 15u})
        ASSERT_TRUE(nocB.inject(toNode(dst)));
    for (int i = 0; i < 100; ++i) {
        simA.step();
        simB.step();
    }
    ASSERT_EQ(nocA.delivered(), 1u);
    ASSERT_EQ(nocB.delivered(), 3u);

    EXPECT_EQ(simA.stats().get("noc.pktLatency.count"), 1);
    EXPECT_EQ(simB.stats().get("noc.pktLatency.count"), 3);

    tracerA.finish();
    tracerB.finish();
    EXPECT_EQ(instantsOnTrack(loadEvents(pathA), "noc.inject"), 1u);
    EXPECT_EQ(instantsOnTrack(loadEvents(pathB), "noc.inject"), 3u);
}

TEST(Trace, ArgsFormatsKeyValuePairs)
{
    EXPECT_EQ(trace::args(), "");
    EXPECT_EQ(trace::args("uid", 3), "\"uid\":3");
    EXPECT_EQ(trace::args("uid", 3, "lane", 1), "\"uid\":3,\"lane\":1");
    EXPECT_EQ(trace::args("kind", "read"), "\"kind\":\"read\"");
    const std::uint8_t small = 7;
    EXPECT_EQ(trace::args("n", small), "\"n\":7")
        << "char-sized integers must print as numbers";
}

TEST(Trace, SpansNestAndJsonIsWellFormed)
{
    const std::string path = tmpPath("ts_trace_spans.json");
    trace::TracerConfig cfg;
    cfg.enabled = true;
    cfg.path = path;
    cfg.processName = "unit \"quoted\"";

    trace::Tracer t(cfg);
    const trace::TrackId lane = t.track("lane0.tu");
    const trace::TrackId other = t.track("lane1.tu");

    t.setNow(10);
    t.begin(lane, "outer", trace::args("uid", 1));
    t.setNow(12);
    t.begin(lane, "inner");
    t.begin(other, "unrelated");
    t.setNow(20);
    t.end(lane); // inner
    t.setNow(25);
    t.end(lane); // outer
    t.end(other);
    t.complete(lane, 30, 5, "fixed", trace::args("line", 64));
    t.instant(lane, "blip");
    const std::uint64_t emitted = t.events();
    t.finish();

    const std::vector<Json> events = loadEvents(path);
    ASSERT_EQ(events.size(), emitted);

    // Replay B/E events per track: they must balance like a stack,
    // with non-decreasing timestamps.
    std::map<double, std::vector<std::string>> open;
    double lastTs = 0.0;
    for (const Json& e : events) {
        const std::string ph = e.at("ph").str;
        if (ph == "M")
            continue;
        const double tid = e.at("tid").num;
        const double ts = e.at("ts").num;
        // "X" events carry a retroactive start time; only live-emitted
        // events are required to be monotone.
        if (ph == "B" || ph == "E") {
            EXPECT_GE(ts, lastTs) << "timestamps must not go backwards";
            lastTs = ts;
        }
        if (ph == "B") {
            open[tid].push_back(e.at("name").str);
        } else if (ph == "E") {
            ASSERT_FALSE(open[tid].empty()) << "E without matching B";
            open[tid].pop_back();
        }
    }
    for (const auto& [tid, stack] : open)
        EXPECT_TRUE(stack.empty()) << "unclosed span on track " << tid;

    // The two explicit tracks carry thread_name metadata.
    std::vector<std::string> names;
    for (const Json& e : events) {
        if (e.at("ph").str == "M" && e.at("name").str == "thread_name")
            names.push_back(e.at("args").at("name").str);
    }
    EXPECT_NE(std::find(names.begin(), names.end(), "lane0.tu"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "lane1.tu"),
              names.end());

    // The complete event keeps its duration; the instant its scope.
    bool sawComplete = false, sawInstant = false;
    for (const Json& e : events) {
        if (e.at("ph").str == "X") {
            sawComplete = true;
            EXPECT_EQ(e.at("ts").num, 30.0);
            EXPECT_EQ(e.at("dur").num, 5.0);
            EXPECT_EQ(e.at("args").at("line").num, 64.0);
        }
        if (e.at("ph").str == "i") {
            sawInstant = true;
            EXPECT_EQ(e.at("s").str, "t");
        }
    }
    EXPECT_TRUE(sawComplete);
    EXPECT_TRUE(sawInstant);
}

TEST(Trace, CounterSeriesShareATrack)
{
    const std::string path = tmpPath("ts_trace_counters.json");
    trace::TracerConfig cfg;
    cfg.enabled = true;
    cfg.path = path;

    trace::Tracer t(cfg);
    t.setNow(1);
    t.counter("readyQ", "depth", 4);
    t.setNow(2);
    t.counter("readyQ", "depth", 2);
    t.counter("mshr", "inflight", 1.5);
    t.finish();

    const std::vector<Json> events = loadEvents(path);
    std::vector<double> readyDepths;
    bool sawFractional = false;
    for (const Json& e : events) {
        if (e.at("ph").str != "C")
            continue;
        if (e.at("name").str == "readyQ")
            readyDepths.push_back(e.at("args").at("depth").num);
        if (e.at("name").str == "mshr") {
            sawFractional = true;
            EXPECT_DOUBLE_EQ(e.at("args").at("inflight").num, 1.5);
        }
    }
    ASSERT_EQ(readyDepths.size(), 2u);
    EXPECT_EQ(readyDepths[0], 4.0);
    EXPECT_EQ(readyDepths[1], 2.0);
    EXPECT_TRUE(sawFractional);
}

TEST(Trace, TrackIdsAreStableAndOrdered)
{
    trace::TracerConfig cfg;
    cfg.enabled = true;
    cfg.path = tmpPath("ts_trace_tracks.json");
    trace::Tracer t(cfg);
    const trace::TrackId a = t.track("alpha");
    const trace::TrackId b = t.track("beta");
    EXPECT_NE(a, b);
    EXPECT_LT(a, b) << "creation order fixes sort order";
    EXPECT_EQ(t.track("alpha"), a) << "lookup must be stable";
    t.finish();
}

TEST(Trace, LaterInstancesGetSuffixedPaths)
{
    // One process running many accelerators with --trace PATH.
    const std::string path = "/tmp/ts_multi_trace.json";
    const trace::TracerConfig first = driver::nextTraceConfig(path);
    const trace::TracerConfig second = driver::nextTraceConfig(path);

    EXPECT_TRUE(first.enabled);
    EXPECT_TRUE(second.enabled);
    EXPECT_NE(first.path, second.path)
        << "per-process instances must not overwrite each other";
    EXPECT_EQ(first.path.rfind(".json"), first.path.size() - 5);
    EXPECT_EQ(second.path.rfind(".json"), second.path.size() - 5);

    const trace::TracerConfig off = driver::nextTraceConfig("");
    EXPECT_FALSE(off.enabled) << "an empty path must disable tracing";
}

// ---------------------------------------------------------------------
// End-to-end: a traced accelerator run.
// ---------------------------------------------------------------------

/** Run the quickstart-style scale workload; returns final stats. */
StatSet
runScaleWorkload(DeltaConfig cfg)
{
    Delta delta(cfg);
    MemImage& img = delta.image();

    auto dfg = std::make_unique<Dfg>("scale");
    const auto x = dfg->addInput();
    const auto m = dfg->add(Op::Mul, Operand::ref(x), Operand::immI(3));
    const auto a = dfg->add(Op::Add, Operand::ref(m), Operand::immI(7));
    dfg->addOutput(a);
    const TaskTypeId scale =
        delta.registry().addDfgType("scale", std::move(dfg));

    const std::size_t n = 2048, chunk = 256;
    const Addr in = img.allocWords(n);
    const Addr out = img.allocWords(n);
    for (std::size_t i = 0; i < n; ++i)
        img.writeInt(in + i * wordBytes, static_cast<std::int64_t>(i));

    TaskGraph graph;
    for (std::size_t c = 0; c < n; c += chunk) {
        WriteDesc dst;
        dst.base = out + c * wordBytes;
        graph.addTask(scale,
                      {StreamDesc::linear(Space::Dram,
                                          in + c * wordBytes, chunk)},
                      {dst});
    }

    StatSet stats = delta.run(graph);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(img.readInt(out + i * wordBytes),
                  3 * static_cast<std::int64_t>(i) + 7);
    }
    return stats;
}

TEST(TraceEndToEnd, TracedRunMatchesUntracedAndCoversAllLayers)
{
    const std::string path = tmpPath("ts_trace_e2e.json");

    const StatSet plain = runScaleWorkload(DeltaConfig::delta(4));

    DeltaConfig traced = DeltaConfig::delta(4);
    traced.trace.enabled = true;
    traced.trace.path = path;
    const StatSet stats = runScaleWorkload(traced);

    // Tracing must not perturb the simulation.
    EXPECT_EQ(stats.get("delta.cycles"), plain.get("delta.cycles"));
    EXPECT_EQ(stats.get("noc.wordHops"), plain.get("noc.wordHops"));
    EXPECT_GT(stats.get("trace.events"), 0.0);

    // Every instrumented layer shows up as a named track.
    const std::vector<Json> events = loadEvents(path);
    std::vector<std::string> tracks;
    for (const Json& e : events) {
        if (e.at("ph").str == "M" && e.at("name").str == "thread_name")
            tracks.push_back(e.at("args").at("name").str);
    }
    auto hasTrack = [&](const std::string& name) {
        return std::find(tracks.begin(), tracks.end(), name) !=
               tracks.end();
    };
    EXPECT_TRUE(hasTrack("lane0.tu")) << "lane task spans";
    EXPECT_TRUE(hasTrack("lane0.tu.state")) << "cycle-class spans";
    EXPECT_TRUE(hasTrack("dispatcher")) << "dispatch decisions";
    EXPECT_TRUE(hasTrack("noc.inject")) << "packet injections";
    EXPECT_TRUE(hasTrack("dram.bank0")) << "memory accesses";

    // Task spans carry the task-type name and uid args.
    bool sawTaskSpan = false;
    for (const Json& e : events) {
        if (e.at("ph").str == "B" && e.at("name").str == "scale" &&
            e.has("args") && e.at("args").has("uid")) {
            sawTaskSpan = true;
            break;
        }
    }
    EXPECT_TRUE(sawTaskSpan);
}

/** Every event on a `lane<i>.tu.state` track, in order, as text. */
std::vector<std::string>
laneStateEvents(const std::string& path)
{
    const std::vector<Json> events = loadEvents(path);
    std::map<double, std::string> stateTracks; // tid -> track name
    for (const Json& e : events) {
        if (e.at("ph").str != "M" || e.at("name").str != "thread_name")
            continue;
        const std::string& track = e.at("args").at("name").str;
        if (track.size() > 9 &&
            track.compare(track.size() - 9, 9, ".tu.state") == 0)
            stateTracks[e.at("tid").num] = track;
    }
    std::vector<std::string> out;
    for (const Json& e : events) {
        if (e.at("ph").str == "M" || !e.has("tid"))
            continue;
        const auto it = stateTracks.find(e.at("tid").num);
        if (it == stateTracks.end())
            continue;
        std::ostringstream os;
        os << it->second << ' ' << e.at("ph").str << ' '
           << e.at("ts").num << ' '
           << (e.has("name") ? e.at("name").str : "");
        out.push_back(os.str());
    }
    return out;
}

TEST(TraceEndToEnd, LaneStateSpansMatchNaiveTicking)
{
    // A task unit sleeps only through cycles of the class it traced
    // last, so its state spans open and close on the same cycles as
    // in the naive loop.
    std::vector<std::string> spans[2];
    for (const bool naive : {false, true}) {
        const std::string path = tmpPath(naive ? "ts_trace_state_naive.json"
                                               : "ts_trace_state_fast.json");
        DeltaConfig cfg = DeltaConfig::delta(4);
        cfg.noFastForward = naive;
        cfg.trace.enabled = true;
        cfg.trace.path = path;
        runScaleWorkload(cfg);
        spans[naive] = laneStateEvents(path);
    }
    EXPECT_GT(spans[0].size(), 8u);
    EXPECT_EQ(spans[0], spans[1]);
}

TEST(TraceEndToEnd, FastForwardedTraceIsByteIdenticalToNaive)
{
    // lu x delta drives every sleep there is: held DRAM responses,
    // routers and the memory node blocked on full queues, read
    // engines refused by the memory port, builtin kernels staging
    // inputs and writing outputs.  Sleeping through a cycle must not
    // drop or move a single trace event.
    std::string text[2];
    for (const bool naive : {false, true}) {
        const std::string path = tmpPath(naive ? "ts_trace_lu_naive.json"
                                               : "ts_trace_lu_fast.json");
        DeltaConfig cfg = driver::sweepConfig("delta").cfg;
        cfg.noFastForward = naive;
        cfg.trace.enabled = true;
        cfg.trace.path = path;
        SuiteParams sp;
        sp.scale = 0.25;
        sp.seed = 7;
        auto wl = makeWorkload(Wk::Lu, sp);
        Delta delta(cfg);
        TaskGraph graph;
        wl->build(delta, graph);
        delta.run(graph);
        EXPECT_TRUE(wl->check(delta.image()));
        text[naive] = slurp(path);
        std::remove(path.c_str());
    }
    EXPECT_GT(text[0].size(), 1000u);
    EXPECT_TRUE(text[0] == text[1])
        << "fast-forwarded and naive traces differ";
}

TEST(TraceEndToEnd, CycleAccountingBucketsSumToTotal)
{
    const StatSet stats = runScaleWorkload(DeltaConfig::delta(4));
    const double cycles = stats.get("delta.cycles");
    ASSERT_GT(cycles, 0.0);

    for (int lane = 0; lane < 4; ++lane) {
        const std::string prefix =
            "lane" + std::to_string(lane) + ".tu.cycles.";
        double sum = 0.0;
        for (std::size_t c = 0; c < kNumCycleClasses; ++c) {
            sum += stats.get(prefix +
                             cycleClassName(static_cast<CycleClass>(c)));
        }
        EXPECT_EQ(sum, cycles)
            << "lane " << lane << " buckets must cover every cycle";
    }

    // The aggregate fractions cover the whole lane-cycle area.
    double frac = 0.0;
    for (std::size_t c = 0; c < kNumCycleClasses; ++c) {
        frac += stats.get(std::string("delta.accounting.frac.") +
                          cycleClassName(static_cast<CycleClass>(c)));
    }
    EXPECT_NEAR(frac, 1.0, 1e-9);
    EXPECT_GT(stats.get("delta.accounting.busy"), 0.0);
}

TEST(TraceEndToEnd, BindingInstantsFollowTheBatchMemberByMember)
{
    // prod reads a shared-read group and pipes into cons; both land in
    // one co-dispatch batch.  The dispatcher binds each batch member in
    // turn, inputs before out-edges, so prod's groupFire precedes its
    // pipeActivated on the same cycle.
    const std::string path = tmpPath("ts_trace_bind_order.json");
    DeltaConfig cfg = DeltaConfig::delta(2);
    cfg.trace.enabled = true;
    cfg.trace.path = path;
    Delta delta(cfg);
    MemImage& img = delta.image();

    auto dfg = std::make_unique<Dfg>("inc");
    const auto x = dfg->addInput();
    dfg->addOutput(dfg->add(Op::Add, Operand::ref(x), Operand::immI(1)));
    const TaskTypeId inc = delta.registry().addDfgType("inc", std::move(dfg));

    const std::uint64_t n = 256;
    const Addr a = img.allocWords(n), b = img.allocWords(n),
               c = img.allocWords(n);
    for (std::uint64_t w = 0; w < n; ++w)
        img.writeInt(a + w * wordBytes, static_cast<std::int64_t>(w));
    TaskGraph g;
    const auto grp = g.addSharedGroup(a, n);
    WriteDesc outB, outC;
    outB.base = b;
    outC.base = c;
    const TaskId prod =
        g.addTask(inc, {StreamDesc::linear(Space::Dram, a, n)}, {outB});
    g.setSharedInput(prod, 0, grp);
    const TaskId cons =
        g.addTask(inc, {StreamDesc::linear(Space::Dram, b, n)}, {outC});
    g.addPipeline(prod, 0, cons, 0);
    const StatSet stats = delta.run(g);
    for (std::uint64_t w = 0; w < n; ++w) {
        EXPECT_EQ(img.readInt(c + w * wordBytes),
                  static_cast<std::int64_t>(w) + 2);
    }
    EXPECT_EQ(stats.get("dispatcher.groupsFired"), 1);
    EXPECT_EQ(stats.get("delta.attrib.pipeline.pipesActivated"), 1);

    std::vector<std::string> binds;
    for (const Json& e : loadEvents(path)) {
        const std::string& name = e.has("name") ? e.at("name").str : "";
        if (name == "groupFire" || name == "pipeActivated" ||
            name == "pipeDegraded")
            binds.push_back(name);
    }
    std::remove(path.c_str());
    EXPECT_EQ(binds,
              (std::vector<std::string>{"groupFire", "pipeActivated"}));
}

TEST(TraceEndToEnd, StatSetDumpJsonParsesBack)
{
    const StatSet stats = runScaleWorkload(DeltaConfig::delta(2));
    std::ostringstream os;
    stats.dumpJson(os);

    Json root;
    JsonReader reader(os.str());
    ASSERT_TRUE(reader.parse(root)) << "dumpJson must emit valid JSON";
    ASSERT_EQ(root.kind, Json::Kind::Obj);
    EXPECT_EQ(root.obj.size(), stats.size());
    EXPECT_EQ(root.at("delta.cycles").num, stats.get("delta.cycles"));
}

} // namespace
} // namespace ts
