/**
 * @file
 * Driver-layer tests: the option table (flags, grid keys, and the
 * one override fold they share), and the parallel sweep engine (grid
 * expansion, -j N determinism, failure surfacing, loud bench-JSON
 * output failures, deterministic aggregation).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "driver/options.hh"
#include "driver/run_one.hh"
#include "driver/sweep.hh"
#include "sim/logging.hh"

using namespace ts;
using namespace ts::driver;

namespace
{

/** Owning argv builder for parser tests. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : strings(std::move(args))
    {
        for (std::string& s : strings)
            ptrs.push_back(s.data());
        ptrs.push_back(nullptr);
        argc = static_cast<int>(strings.size());
    }

    std::vector<std::string> strings;
    std::vector<char*> ptrs;
    int argc = 0;

    char** argv() { return ptrs.data(); }
};

/** Parse @p args as a single-run binary would. */
RunOptions
parse(std::vector<std::string> args)
{
    Argv a(std::move(args));
    return parseCommandLine(a.argc, a.argv());
}

/** Fresh per-test scratch directory, removed on destruction. */
struct TempDir
{
    std::filesystem::path path;

    explicit TempDir(const std::string& tag)
    {
        path = std::filesystem::temp_directory_path() /
               ("ts_driver_test_" + tag + "_" +
                std::to_string(::getpid()));
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~TempDir() { std::filesystem::remove_all(path); }
};

/** One fast sweep point writing bench JSON to @p dir. */
SweepSpec
benchJsonSpec(const std::filesystem::path& dir)
{
    SweepSpec spec;
    spec.workloads = {Wk::Spmv};
    spec.configs = sweepConfigsFromList("static");
    spec.seeds = {7};
    spec.scales = {0.25};
    spec.jobs = 1;
    spec.overrides.benchJsonDir = dir.string();
    return spec;
}

/** A small, fast grid used by the determinism tests. */
SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.workloads = {Wk::Spmv, Wk::Msort};
    spec.configs = sweepConfigsFromList("static,delta");
    spec.seeds = {7, 11};
    spec.scales = {0.25};
    spec.baseline = "static";
    return spec;
}

} // namespace

// ---------------------------------------------------------------------
// RunOptions: the option table as command-line flags.
// ---------------------------------------------------------------------

TEST(RunOptionsTest, DefaultsSelectWholeSuite)
{
    const RunOptions opt = parse({"prog"});
    EXPECT_EQ(opt.workloads, allWorkloads());
    EXPECT_DOUBLE_EQ(opt.scale, 1.0);
    EXPECT_EQ(opt.seed, 7u);
    EXPECT_EQ(opt.logLevel, 1);
    EXPECT_TRUE(opt.overrides.tracePath.empty());
    EXPECT_TRUE(opt.overrides.statsJsonPath.empty());
    EXPECT_TRUE(opt.overrides.benchJsonDir.empty());
    EXPECT_FALSE(opt.overrides.sched.has_value());
    EXPECT_EQ(opt.jobs, 0u);
}

TEST(RunOptionsTest, FlagsOverrideEnv)
{
    // The environment is never read: variables that once served as
    // fallbacks change nothing, and the flags alone decide.
    ASSERT_EQ(::setenv("TS_SCALE", "0.5", 1), 0);
    ASSERT_EQ(::setenv("TS_SEED", "123", 1), 0);
    ASSERT_EQ(::setenv("TS_SCHED", "spatial", 1), 0);
    ASSERT_EQ(::setenv("TS_STEAL", "steal-half", 1), 0);
    const RunOptions opt = parse({"prog", "--scale", "2.0", "--seed=9",
                                  "--workloads", "lu", "-j", "4"});
    for (const char* v : {"TS_SCALE", "TS_SEED", "TS_SCHED", "TS_STEAL"})
        ::unsetenv(v);

    EXPECT_DOUBLE_EQ(opt.scale, 2.0);
    EXPECT_EQ(opt.seed, 9u);
    EXPECT_EQ(opt.workloads, (std::vector<Wk>{Wk::Lu}));
    EXPECT_EQ(opt.jobs, 4u);
    EXPECT_FALSE(opt.overrides.sched.has_value());
    EXPECT_EQ(opt.overrides.steal, StealPolicy::None);
}

TEST(RunOptionsTest, NoFastForwardFlag)
{
    EXPECT_FALSE(parse({"prog"}).overrides.noFastForward);
    const RunOptions opt = parse({"prog", "--no-fast-forward"});
    EXPECT_TRUE(opt.overrides.noFastForward);
    EXPECT_FALSE(
        parse({"prog", "--no-fast-forward=0"}).overrides.noFastForward);

    DeltaConfig cfg;
    EXPECT_FALSE(cfg.noFastForward);
    EXPECT_TRUE(opt.overrides.applyTo(cfg).noFastForward);
}

TEST(RunOptionsTest, LenientParserLeavesUnknownArgs)
{
    // bench_host's shape: the table takes its options, a handler
    // collects everything else for google-benchmark, in order.
    Argv a({"prog", "--benchmark_filter=fig1", "--seed", "3",
            "positional"});
    RunOptions opt;
    GridSettings grid;
    std::vector<std::string> rest;
    parseArgs(a.argc, a.argv(), Scope::Run, opt, grid,
              [&](const std::string& arg,
                  const std::function<std::string()>&) {
                  rest.push_back(arg);
                  return true;
              });
    EXPECT_EQ(opt.seed, 3u);
    EXPECT_EQ(rest, (std::vector<std::string>{"--benchmark_filter=fig1",
                                              "positional"}));
}

TEST(RunOptionsTest, StrictParserRejectsUnknownFlagListingValid)
{
    // Grid axes belong to delta-sweep only.
    for (const char* flag : {"--no-such-flag", "--configs"}) {
        try {
            parse({"prog", flag, "x"});
            FAIL() << "expected FatalError for " << flag;
        } catch (const FatalError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(flag), std::string::npos);
            EXPECT_NE(what.find("--workloads"), std::string::npos)
                << "the error must list the valid flags";
        }
    }
}

TEST(RunOptionsTest, UnknownWorkloadFailsListingValid)
{
    try {
        parse({"prog", "--workloads", "bogus"});
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("bogus"), std::string::npos);
        EXPECT_NE(what.find("spmv"), std::string::npos)
            << "the error must list the valid workloads";
    }
}

TEST(RunOptionsTest, MissingValueFailsFast)
{
    EXPECT_THROW(parse({"prog", "--scale"}), FatalError);
}

TEST(RunOptionsTest, BadValueFailsNamingTheOption)
{
    for (const auto& [flag, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"--scale", "-1"},
             {"--scale", "abc"},
             {"--seed", "-3"},
             {"--log", "3"},
             {"--sched", "fifo"},
             {"--steal", "all"},
             {"--progress", "sometimes"},
             {"--jobs", "0"},
             {"--host-profile", "2"}}) {
        try {
            parse({"prog", flag + "=" + value});
            FAIL() << flag << "=" << value << " must be rejected";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(flag.substr(2)),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(RunOptionsTest, ApplyToInjectsTraceAndStats)
{
    RunOverrides ov;
    ov.tracePath = "/tmp/ts_applyto_trace.json";
    ov.statsJsonPath = "/tmp/ts_applyto_stats.json";

    const DeltaConfig cfg = ov.applyTo(DeltaConfig::delta(4));
    EXPECT_TRUE(cfg.trace.enabled);
    EXPECT_NE(cfg.trace.path.find("ts_applyto_trace"),
              std::string::npos);
    EXPECT_EQ(cfg.statsJsonPath, "/tmp/ts_applyto_stats.json");

    // A run tag names the trace deterministically.
    EXPECT_EQ(ov.applyTo(DeltaConfig::delta(4), "t1").trace.path,
              "/tmp/ts_applyto_trace.t1.json");

    // An explicitly configured tracer wins over the option path.
    DeltaConfig pre = DeltaConfig::delta(4);
    pre.trace.enabled = true;
    pre.trace.path = "explicit.json";
    EXPECT_EQ(ov.applyTo(pre).trace.path, "explicit.json");
}

TEST(RunOptionsTest, TaggedTraceConfigIsDeterministic)
{
    const trace::TracerConfig a =
        traceConfigTagged("sweep.json", "spmv_delta_l8_s7_x1");
    EXPECT_TRUE(a.enabled);
    EXPECT_EQ(a.path, "sweep.spmv_delta_l8_s7_x1.json");
    EXPECT_FALSE(traceConfigTagged("", "t").enabled);
}

// ---------------------------------------------------------------------
// Sweep: config presets and grid expansion.
// ---------------------------------------------------------------------

TEST(SweepConfigTest, UnknownNameFailsListingValid)
{
    try {
        sweepConfig("bogus");
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("bogus"), std::string::npos);
        for (const std::string& name : sweepConfigNames())
            EXPECT_NE(what.find(name), std::string::npos)
                << "the error must list '" << name << "'";
    }
}

TEST(SweepConfigTest, PresetsFormTheAblationLadder)
{
    const ConfigVariant st = sweepConfig("static", 8);
    EXPECT_EQ(st.cfg.policy, SchedPolicy::Static);
    EXPECT_TRUE(st.cfg.bulkSynchronous);

    const ConfigVariant dyn = sweepConfig("dyn", 8);
    EXPECT_EQ(dyn.cfg.policy, SchedPolicy::DynCount);
    EXPECT_FALSE(dyn.cfg.enablePipeline);
    EXPECT_FALSE(dyn.cfg.enableMulticast);

    const ConfigVariant full = sweepConfig("delta", 16);
    EXPECT_EQ(full.cfg.policy, SchedPolicy::WorkAware);
    EXPECT_TRUE(full.cfg.enablePipeline);
    EXPECT_TRUE(full.cfg.enableMulticast);
    EXPECT_EQ(full.cfg.lanes, 16u);

    const ConfigVariant spat = sweepConfig("spatial", 8);
    EXPECT_EQ(spat.cfg.policy, SchedPolicy::Spatial);
    EXPECT_FALSE(spat.cfg.enablePipeline);
    EXPECT_TRUE(spat.cfg.enableMulticast);
    EXPECT_FALSE(spat.cfg.bulkSynchronous);

    const auto defaults = sweepConfigsFromList("");
    ASSERT_EQ(defaults.size(), 2u);
    EXPECT_EQ(defaults[0].name, "static");
    EXPECT_EQ(defaults[1].name, "delta");
}

TEST(SweepTest, GridExpandsInDeterministicOrder)
{
    SweepSpec spec = smallSpec();
    const Sweep sweep(spec);
    const auto& pts = sweep.points();
    // 2 workloads x 1 scale x 2 seeds x 2 configs.
    ASSERT_EQ(pts.size(), 8u);
    EXPECT_EQ(pts[0].tag(), "spmv_static_l8_s7_x0.25");
    EXPECT_EQ(pts[1].tag(), "spmv_delta_l8_s7_x0.25");
    EXPECT_EQ(pts[2].tag(), "spmv_static_l8_s11_x0.25");
    EXPECT_EQ(pts[3].tag(), "spmv_delta_l8_s11_x0.25");
    EXPECT_EQ(pts[4].tag(), "msort_static_l8_s7_x0.25");
}

TEST(SweepTest, EmptyAxisFailsFast)
{
    SweepSpec spec = smallSpec();
    spec.workloads.clear();
    EXPECT_THROW(Sweep{spec}, FatalError);

    spec = smallSpec();
    spec.seeds.clear();
    EXPECT_THROW(Sweep{spec}, FatalError);

    spec = smallSpec();
    spec.baseline = "nonexistent";
    EXPECT_THROW(Sweep{spec}, FatalError);
}

// ---------------------------------------------------------------------
// Sweep: parallel execution determinism (the core contract).
// ---------------------------------------------------------------------

TEST(SweepTest, ParallelSweepIsBitIdenticalToSerial)
{
    SweepSpec serialSpec = smallSpec();
    serialSpec.jobs = 1;
    SweepReport serial = Sweep(serialSpec).run();

    SweepSpec parallelSpec = smallSpec();
    parallelSpec.jobs = 4;
    SweepReport parallel = Sweep(parallelSpec).run();

    ASSERT_EQ(serial.runs.size(), parallel.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        const RunOutcome& a = serial.runs[i];
        const RunOutcome& b = parallel.runs[i];
        EXPECT_EQ(a.point.tag(), b.point.tag());
        EXPECT_TRUE(a.ok()) << a.point.tag() << ": " << a.error;
        EXPECT_TRUE(b.ok()) << b.point.tag() << ": " << b.error;
        EXPECT_EQ(a.cycles, b.cycles) << a.point.tag();

        std::ostringstream ja, jb;
        a.stats.dumpJson(ja, "sim.host.");
        b.stats.dumpJson(jb, "sim.host.");
        EXPECT_EQ(ja.str(), jb.str())
            << a.point.tag()
            << ": per-run StatSets must be bit-identical";
    }

    std::ostringstream ra, rb;
    serial.writeJson(ra);
    parallel.writeJson(rb);
    EXPECT_EQ(ra.str(), rb.str())
        << "aggregate report JSON must be bit-identical";

    // Sanity on the aggregation itself: every cell saw both seeds,
    // and delta beats static on spmv at this scale.
    const auto aggs = serial.aggregates();
    ASSERT_EQ(aggs.size(), 4u);
    for (const CellAggregate& a : aggs) {
        EXPECT_EQ(a.n, 2u);
        EXPECT_GT(a.meanCycles, 0.0);
        EXPECT_GE(a.stddevCycles, 0.0);
    }
    const auto sps = serial.pairedSpeedups();
    ASSERT_EQ(sps.size(), 2u);
    EXPECT_EQ(sps[0].config, "delta");
    EXPECT_EQ(sps[0].n, 2u);
    EXPECT_GT(sps[0].mean, 1.0)
        << "delta must beat static on spmv";
}

// ---------------------------------------------------------------------
// Sweep: back-to-back points match standalone runs.  A sweep worker
// runs its points one after another on one thread, building a fresh
// Delta per point; the later points of a worker are where runs were
// once warm-started from a forked snapshot.  Each must reproduce a
// standalone Delta byte for byte, for every workload under both the
// static baseline and the full TaskStream config: no simulator
// state may outlive the Delta that owned it.
// ---------------------------------------------------------------------

namespace
{

class SnapshotForkDifferential
    : public ::testing::TestWithParam<std::tuple<Wk, bool>>
{
};

/** One standalone run's stats dump (sim.host.* dropped). */
std::string
standaloneDump(Wk wk, const DeltaConfig& cfg, std::uint64_t seed,
               double scale)
{
    SuiteParams sp;
    sp.seed = seed;
    sp.scale = scale;
    auto wl = makeWorkload(wk, sp);
    Delta delta(cfg);
    TaskGraph graph;
    wl->build(delta, graph);
    const StatSet stats = delta.run(graph);
    EXPECT_TRUE(wl->check(delta.image())) << wkName(wk);
    std::ostringstream os;
    stats.dumpJson(os, "sim.host.");
    return os.str();
}

std::string
forkName(const ::testing::TestParamInfo<std::tuple<Wk, bool>>& info)
{
    return wkIdent(std::get<0>(info.param)) +
           (std::get<1>(info.param) ? "_static" : "_delta");
}

} // namespace

TEST_P(SnapshotForkDifferential, ForkedRunsBitIdenticalToFresh)
{
    const Wk wk = std::get<0>(GetParam());
    const bool staticConfig = std::get<1>(GetParam());

    SweepSpec spec;
    spec.workloads = {wk};
    spec.configs = sweepConfigsFromList(staticConfig ? "static"
                                                     : "delta");
    // Two seeds on one worker: the second run follows the first.
    spec.seeds = {7, 11};
    spec.scales = {0.25};
    spec.jobs = 1;
    const SweepReport report = Sweep(spec).run();

    ASSERT_EQ(report.runs.size(), 2u);
    for (const RunOutcome& out : report.runs) {
        ASSERT_TRUE(out.ok()) << out.point.tag() << ": " << out.error;
        std::ostringstream os;
        out.stats.dumpJson(os, "sim.host.");
        EXPECT_EQ(os.str(),
                  standaloneDump(wk, spec.configs.front().cfg,
                                 out.point.seed, out.point.scale))
            << out.point.tag()
            << ": a sweep run diverged from a standalone Delta; some "
               "state outlived the previous run on its worker";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SnapshotForkDifferential,
    ::testing::Combine(::testing::ValuesIn(allWorkloads()),
                       ::testing::Bool()),
    forkName);

TEST(SweepTest, FailedRunSurfacesInReport)
{
    SweepSpec spec;
    spec.workloads = {Wk::Spmv};
    spec.configs = sweepConfigsFromList("static,delta");
    // Starve the delta config so the simulation cannot finish: the
    // failure must surface per-run without sinking the whole sweep.
    for (ConfigVariant& c : spec.configs) {
        if (c.name == "delta")
            c.cfg.maxCycles = 10;
    }
    spec.seeds = {7};
    spec.scales = {0.25};
    spec.jobs = 2;

    SweepReport report = Sweep(spec).run();
    ASSERT_EQ(report.runs.size(), 2u);
    EXPECT_FALSE(report.allOk());
    EXPECT_EQ(report.failures(), 1u);

    const RunOutcome* bad = report.find(Wk::Spmv, "delta", 7, 0.25);
    ASSERT_NE(bad, nullptr);
    EXPECT_TRUE(bad->failed);
    EXPECT_FALSE(bad->error.empty());

    const RunOutcome* good = report.find(Wk::Spmv, "static", 7, 0.25);
    ASSERT_NE(good, nullptr);
    EXPECT_TRUE(good->ok())
        << "an isolated failure must not poison other runs";

    std::ostringstream os;
    report.writeJson(os);
    EXPECT_NE(os.str().find("\"failed\": true"), std::string::npos);
    EXPECT_NE(os.str().find("\"error\": "), std::string::npos);

    // Failed cells drop out of aggregation instead of skewing it.
    for (const CellAggregate& a : report.aggregates()) {
        if (a.config == "delta")
            EXPECT_EQ(a.n, 0u);
        else
            EXPECT_EQ(a.n, 1u);
    }
    EXPECT_TRUE(report.pairedSpeedups().front().n == 0);
}

TEST(SweepTest, BenchJsonDirIsCreated)
{
    const TempDir tmp("bench_mkdir");
    const std::filesystem::path dir = tmp.path / "a" / "b";
    const SweepSpec spec = benchJsonSpec(dir);
    const SweepReport report = Sweep(spec).run();
    ASSERT_TRUE(report.allOk());
    EXPECT_TRUE(std::filesystem::is_regular_file(
        dir / (report.runs.front().point.tag() + ".json")));
}

TEST(SweepTest, UncreatableBenchJsonDirFailsNamingThePath)
{
    const TempDir tmp("bench_blocked");
    // A regular file where a directory component must go.
    const std::filesystem::path blocker = tmp.path / "file";
    std::ofstream(blocker) << "x";
    const std::filesystem::path dir = blocker / "sub";
    try {
        Sweep(benchJsonSpec(dir)).run();
        FAIL() << "expected fatal";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(dir.string()),
                  std::string::npos)
            << "diagnosis must name the directory: " << e.what();
    }
}

TEST(SweepTest, UnwritableBenchJsonFileFailsItsPoint)
{
    const TempDir tmp("bench_unwritable");
    const SweepSpec spec = benchJsonSpec(tmp.path);
    // A directory squatting on the point's file name.
    const std::string path =
        (tmp.path / (Sweep(spec).points().front().tag() + ".json"))
            .string();
    std::filesystem::create_directory(path);

    const SweepReport report = Sweep(spec).run();
    ASSERT_EQ(report.runs.size(), 1u);
    EXPECT_FALSE(report.allOk())
        << "a lost bench JSON must fail the sweep, not just warn";
    EXPECT_TRUE(report.runs.front().failed);
    EXPECT_NE(report.runs.front().error.find(path), std::string::npos)
        << "diagnosis must name the file: " << report.runs.front().error;
}

/** @p path's lines, minus the host-side (non-deterministic) ones. */
std::string
deterministicLines(const std::filesystem::path& path)
{
    std::ifstream in(path);
    std::string line, out;
    while (std::getline(in, line)) {
        if (line.find("\"sim.host.") == std::string::npos)
            out += line + "\n";
    }
    return out;
}

TEST(RunOneTest, BenchJsonDirIsCreatedAndWriteFailureIsFatal)
{
    const TempDir tmp("runone_bench");
    RunOptions opt;
    opt.scale = 0.25;
    opt.overrides.benchJsonDir = (tmp.path / "a" / "b").string();
    const auto run = [&] {
        const auto wl = makeWorkload(Wk::Spmv, opt.suiteParams());
        return runOne(opt, *wl, sweepConfig("static"));
    };
    EXPECT_TRUE(run().correct);

    // The one-shot wrapper is the sweep's, under the sweep's name.
    const SweepSpec spec = benchJsonSpec(tmp.path / "sweep");
    ASSERT_TRUE(Sweep(spec).run().allOk());
    const std::string file = "spmv_static_l8_s7_x0.25.json";
    const std::string one = deterministicLines(
        std::filesystem::path(opt.overrides.benchJsonDir) / file);
    EXPECT_NE(one.find("\"config\": \"static\""), std::string::npos);
    EXPECT_EQ(one, deterministicLines(tmp.path / "sweep" / file));

    const std::filesystem::path blocker = tmp.path / "file";
    std::ofstream(blocker) << "x";
    opt.overrides.benchJsonDir = (blocker / "sub").string();
    try {
        run();
        FAIL() << "expected fatal";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(opt.overrides.benchJsonDir),
                  std::string::npos)
            << "diagnosis must name the path: " << e.what();
    }
}

TEST(GridKeyTest, RemovedKeysFailAsUnknown)
{
    for (const char* key : {"shards", "no-snapshot-fork"}) {
        RunOptions opt;
        GridSettings grid;
        try {
            applyGridKey(key, "1", opt, grid);
            FAIL() << "grid key '" << key << "' must be rejected";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find("unknown grid key"),
                      std::string::npos)
                << e.what();
        }
    }
}

// ---------------------------------------------------------------------
// One override, three ways in.  Every option that sets a DeltaConfig
// field must resolve to the same config whether it arrives as a
// flag, as a grid key, or on a sweep point built the way the figures
// build theirs (and so in canonicalCell) — and that config must
// differ from the default.
// ---------------------------------------------------------------------

namespace
{

/** Every DeltaConfig field an option can reach, as one string. */
std::string
describe(const DeltaConfig& cfg)
{
    std::ostringstream os;
    os << canonicalConfig(cfg) << " hostProfile=" << cfg.hostProfile
       << " flightRecorder=" << cfg.flightRecorder
       << " trace=" << cfg.trace.enabled;
    return os.str();
}

using Settings = std::vector<std::pair<std::string, std::string>>;

} // namespace

TEST(OptionTableTest, FlagGridKeyAndSweepPointResolveAlike)
{
    const std::vector<Settings> cases = {
        {{"sched", "spatial"}},
        {{"steal", "steal-half"}},
        {{"flight-recorder", "64"}},
        {{"no-fast-forward", "1"}},
        {{"timeline", "500"}},
        {{"timeline", "500"}, {"timeline-series", "lanes,noc"}},
        {{"host-profile", "1"}},
        {{"trace", "/tmp/ts_option_table.json"}},
    };
    const ConfigVariant base = sweepConfig("delta");
    for (const Settings& set : cases) {
        const std::string what = set.front().first;

        std::vector<std::string> args{"prog"};
        RunOptions gridOpt;
        GridSettings grid;
        grid.configs = "delta";
        for (const auto& [key, value] : set) {
            args.push_back("--" + key + "=" + value);
            applyGridKey(key, value, gridOpt, grid);
        }
        const RunOptions flagOpt = parse(args);

        const SweepSpec figure = sweepSpec(flagOpt, {base});
        const SweepSpec cli = buildSweepSpec(gridOpt, grid);
        const RunPoint point = Sweep(figure).points().front();
        ASSERT_EQ(point.tag(), Sweep(cli).points().front().tag());

        const DeltaConfig fromFlag =
            flagOpt.overrides.applyTo(base.cfg, point.tag());
        EXPECT_NE(describe(fromFlag), describe(base.cfg))
            << what << " must change the config";
        EXPECT_EQ(describe(cli.pointConfig(point)), describe(fromFlag))
            << what << ": grid key and flag disagree";
        EXPECT_EQ(describe(figure.pointConfig(point)), describe(fromFlag))
            << what << ": a sweep point dropped the flag";
        EXPECT_NE(canonicalCell(figure, point)
                      .find(canonicalConfig(fromFlag)),
                  std::string::npos)
            << what << ": canonicalCell must see the override";
    }
}

TEST(OptionTableTest, GridFileMatchesFlags)
{
    const TempDir tmp("grid_file");
    const std::filesystem::path file = tmp.path / "g.grid";
    std::ofstream(file) << "# a comment\n"
                        << "configs = static, delta\n"
                        << "seeds = 7, 11   # trailing comment\n"
                        << "\n"
                        << "sched = dyncount\n"
                        << "workloads = spmv\n";
    RunOptions fileOpt;
    GridSettings fileGrid;
    loadGridFile(file.string(), fileOpt, fileGrid);

    Argv a({"delta-sweep", "--configs", "static,delta", "--seeds=7,11",
            "--sched", "dyncount", "--workloads", "spmv"});
    RunOptions flagOpt;
    GridSettings flagGrid;
    parseArgs(a.argc, a.argv(), Scope::Sweep, flagOpt, flagGrid);

    const SweepSpec fromFile = buildSweepSpec(fileOpt, fileGrid);
    const SweepSpec fromFlags = buildSweepSpec(flagOpt, flagGrid);
    const Sweep sweep(fromFile);
    ASSERT_EQ(sweep.points().size(), 4u);
    for (const RunPoint& p : sweep.points())
        EXPECT_EQ(canonicalCell(fromFile, p), canonicalCell(fromFlags, p));

    // The listing is generated from the same table.
    std::ostringstream keys;
    printGridKeys(keys);
    for (const char* key : {"sched", "flight-recorder", "configs"})
        EXPECT_NE(keys.str().find(std::string("  ") + key + " = "),
                  std::string::npos)
            << key;
}

TEST(SweepTest, AggregationMathIsExact)
{
    // Synthetic outcomes: verify the cross-seed mean/stddev and the
    // paired speedups without simulating.
    SweepSpec spec;
    spec.workloads = {Wk::Spmv};
    spec.configs = sweepConfigsFromList("static,delta");
    spec.seeds = {1, 2};
    spec.scales = {1.0};
    spec.baseline = "static";

    SweepReport report;
    report.spec = spec;
    const auto add = [&](const char* config, std::uint64_t seed,
                         double cycles) {
        RunOutcome r;
        r.point.workload = Wk::Spmv;
        r.point.config = config;
        r.point.seed = seed;
        r.point.scale = 1.0;
        r.correct = true;
        r.cycles = cycles;
        report.runs.push_back(r);
    };
    add("static", 1, 1000.0);
    add("delta", 1, 500.0);
    add("static", 2, 1200.0);
    add("delta", 2, 400.0);

    const auto aggs = report.aggregates();
    ASSERT_EQ(aggs.size(), 2u);
    EXPECT_DOUBLE_EQ(aggs[0].meanCycles, 1100.0);
    // Sample stddev of {1000, 1200}.
    EXPECT_NEAR(aggs[0].stddevCycles, 141.4213562, 1e-6);
    EXPECT_DOUBLE_EQ(aggs[1].meanCycles, 450.0);

    const auto sps = report.pairedSpeedups();
    ASSERT_EQ(sps.size(), 1u);
    EXPECT_EQ(sps[0].config, "delta");
    EXPECT_EQ(sps[0].n, 2u);
    // Paired per-seed: 1000/500 = 2 and 1200/400 = 3.
    EXPECT_DOUBLE_EQ(sps[0].mean, 2.5);
    EXPECT_NEAR(sps[0].stddev, 0.7071067812, 1e-6);
}

TEST(SweepTest, ParallelForCoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits)
        h = 0;
    parallelFor(hits.size(), 8, [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

// ---------------------------------------------------------------------
// Canonical-config completeness: the run cache is only sound if every
// behaviour-relevant DeltaConfig field lands in canonicalConfig().
// Perturb each field one at a time and insist the canonical string
// moves; anyone adding a field without extending canonicalConfig()
// (and this list) trips the check the moment the field matters.
// ---------------------------------------------------------------------

namespace
{

template <typename Fn>
::testing::AssertionResult
canonicalChangesWhen(const char* field, Fn mutate)
{
    const std::string base = canonicalConfig(DeltaConfig{});
    DeltaConfig cfg;
    mutate(cfg);
    if (canonicalConfig(cfg) != base)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "perturbing DeltaConfig::" << field
           << " left canonicalConfig() unchanged — stale cache hits "
              "would alias distinct runs";
}

} // namespace

#define TS_EXPECT_CANONICAL(field, expr)                                \
    EXPECT_TRUE(canonicalChangesWhen(                                   \
        #field, [](DeltaConfig& c) { expr; }))

TEST(CanonicalConfigTest, EveryBehaviourFieldParticipates)
{
    TS_EXPECT_CANONICAL(lanes, c.lanes = 3);
    TS_EXPECT_CANONICAL(policy, c.policy = SchedPolicy::Static);
    TS_EXPECT_CANONICAL(steal, c.steal = StealPolicy::StealHalf);
    TS_EXPECT_CANONICAL(enablePipeline, c.enablePipeline = false);
    TS_EXPECT_CANONICAL(enableMulticast, c.enableMulticast = false);
    TS_EXPECT_CANONICAL(bulkSynchronous, c.bulkSynchronous = true);
    TS_EXPECT_CANONICAL(laneQueueCap, c.laneQueueCap = 9);
    TS_EXPECT_CANONICAL(lane.numReadEngines,
                        c.lane.numReadEngines = 7);
    TS_EXPECT_CANONICAL(lane.numWriteEngines,
                        c.lane.numWriteEngines = 7);
    TS_EXPECT_CANONICAL(lane.maxOutstandingLines,
                        c.lane.maxOutstandingLines = 99);
    TS_EXPECT_CANONICAL(lane.fabric.geom.rows,
                        c.lane.fabric.geom.rows = 9);
    TS_EXPECT_CANONICAL(lane.fabric.geom.cols,
                        c.lane.fabric.geom.cols = 9);
    TS_EXPECT_CANONICAL(lane.fabric.geom.linkMultiplicity,
                        c.lane.fabric.geom.linkMultiplicity = 9);
    TS_EXPECT_CANONICAL(lane.fabric.portFifoDepth,
                        c.lane.fabric.portFifoDepth = 99);
    TS_EXPECT_CANONICAL(lane.fabric.operandFifoDepth,
                        c.lane.fabric.operandFifoDepth = 99);
    TS_EXPECT_CANONICAL(lane.fabric.configBaseCycles,
                        c.lane.fabric.configBaseCycles = 999);
    TS_EXPECT_CANONICAL(lane.fabric.configPerNodeCycles,
                        c.lane.fabric.configPerNodeCycles = 999);
    TS_EXPECT_CANONICAL(lane.spm.sizeWords,
                        c.lane.spm.sizeWords = 12345);
    TS_EXPECT_CANONICAL(lane.spm.portsPerCycle,
                        c.lane.spm.portsPerCycle = 9);
    TS_EXPECT_CANONICAL(lane.read.deliverWidth,
                        c.lane.read.deliverWidth = 9);
    TS_EXPECT_CANONICAL(lane.read.genPerCycle,
                        c.lane.read.genPerCycle = 9);
    TS_EXPECT_CANONICAL(lane.read.fetcher.maxOutstanding,
                        c.lane.read.fetcher.maxOutstanding = 99);
    TS_EXPECT_CANONICAL(lane.read.fetcher.maxWindow,
                        c.lane.read.fetcher.maxWindow = 99);
    TS_EXPECT_CANONICAL(lane.read.fetcher.issuesPerCycle,
                        c.lane.read.fetcher.issuesPerCycle = 9);
    TS_EXPECT_CANONICAL(lane.write.width, c.lane.write.width = 9);
    TS_EXPECT_CANONICAL(lane.write.writeQueueDepth,
                        c.lane.write.writeQueueDepth = 99);
    TS_EXPECT_CANONICAL(mem.numBanks, c.mem.numBanks = 3);
    TS_EXPECT_CANONICAL(mem.serviceLatency, c.mem.serviceLatency = 99);
    TS_EXPECT_CANONICAL(mem.bankOccupancy, c.mem.bankOccupancy = 99);
    TS_EXPECT_CANONICAL(mem.issueWidth, c.mem.issueWidth = 9);
    TS_EXPECT_CANONICAL(mem.queueCapacity, c.mem.queueCapacity = 99);
    TS_EXPECT_CANONICAL(nocLinks.channelCapacity,
                        c.nocLinks.channelCapacity = 99);
    TS_EXPECT_CANONICAL(nocLinks.linkWords, c.nocLinks.linkWords = 9);
    TS_EXPECT_CANONICAL(spatialBufferWords,
                        c.spatialBufferWords = 4096);
    TS_EXPECT_CANONICAL(maxCycles, c.maxCycles = 1234);
    TS_EXPECT_CANONICAL(noFastForward, c.noFastForward = true);
    TS_EXPECT_CANONICAL(timelineInterval, c.timelineInterval = 100);
    TS_EXPECT_CANONICAL(timelineMaxSamples,
                        c.timelineMaxSamples = 9);
    TS_EXPECT_CANONICAL(timelineSeries, c.timelineSeries = "lanes");
}

TEST(CanonicalConfigTest, ResultsNeutralFieldsAreExcluded)
{
    const std::string base = canonicalConfig(DeltaConfig{});

    // Bit-identity across these is CI-gated, which is exactly what
    // lets a cached result answer for any value of them.
    DeltaConfig prof;
    prof.hostProfile = true;
    EXPECT_EQ(canonicalConfig(prof), base);

    DeltaConfig rec;
    rec.flightRecorder = 1024;
    EXPECT_EQ(canonicalConfig(rec), base);
}
