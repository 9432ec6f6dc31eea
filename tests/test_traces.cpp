// Trace subsystem tests: format round-trip, malformed-input rejection
// with line numbers, compile_trace() output, the built-in scenario
// sources, load scaling in the execution engine, and deterministic
// record/replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "core/strategy.h"
#include "exp/case.h"
#include "exp/sweeps.h"
#include "grid/machine_model.h"
#include "support/rng.h"
#include "traces/compiler.h"
#include "traces/load_timeline.h"
#include "traces/scenario_source.h"
#include "traces/trace_format.h"
#include "workloads/scenario.h"

namespace aheft::traces {
namespace {

GridTrace sample_trace() {
  GridTrace trace;
  trace.name = "sample";
  trace.resources = {
      {0, 0.0, sim::kTimeInfinity, "stable"},
      {1, 0.0, 512.0, "doomed"},
      {2, 0.1234567890123456789, sim::kTimeInfinity, "late"},
  };
  trace.load = {
      {0, 10.0, 20.0, 2.5},
      {2, 1.0 / 3.0, sim::kTimeInfinity, 1.75},
  };
  trace.jobs = {{0, 0.0, "ingest"}, {1, 3.5, "transform"}};
  return trace;
}

// ------------------------------------------------------------- format --

TEST(TraceFormat, WriteReadRoundTripIsIdentical) {
  const GridTrace original = sample_trace();
  const GridTrace reread = read_trace_string(write_trace_string(original));
  EXPECT_EQ(original, reread);
  // And the serialized form is a fixed point.
  EXPECT_EQ(write_trace_string(original), write_trace_string(reread));
}

TEST(TraceFormat, RoundTripsExactDoubles) {
  GridTrace trace;
  trace.name = "doubles";
  trace.resources = {{0, 0.1 + 0.2, sim::kTimeInfinity, "r1"}};
  trace.load = {{0, 1e-300, 1e300, 1.0000000000000002}};
  const GridTrace reread = read_trace_string(write_trace_string(trace));
  EXPECT_EQ(trace.resources[0].arrival, reread.resources[0].arrival);
  EXPECT_EQ(trace.load[0].start, reread.load[0].start);
  EXPECT_EQ(trace.load[0].end, reread.load[0].end);
  EXPECT_EQ(trace.load[0].multiplier, reread.load[0].multiplier);
}

TEST(TraceFormat, IgnoresCommentsAndBlankLines) {
  const GridTrace trace = read_trace_string(
      "# leading comment\n"
      "\n"
      "gridtrace v1 demo  # trailing comment\n"
      "resource 0 0 inf r1\n"
      "\n"
      "load 0 5 10 2.0\n");
  EXPECT_EQ(trace.name, "demo");
  ASSERT_EQ(trace.resources.size(), 1u);
  EXPECT_EQ(trace.resources[0].departure, sim::kTimeInfinity);
  ASSERT_EQ(trace.load.size(), 1u);
}

void expect_rejects(const std::string& text, std::size_t line,
                    const std::string& message_fragment) {
  try {
    (void)read_trace_string(text);
    FAIL() << "expected TraceParseError for: " << text;
  } catch (const TraceParseError& error) {
    EXPECT_EQ(error.line(), line) << error.what();
    EXPECT_NE(std::string(error.what()).find(message_fragment),
              std::string::npos)
        << error.what();
  }
}

TEST(TraceFormat, RejectsMalformedInputWithLineNumbers) {
  expect_rejects("", 1, "missing");
  expect_rejects("resource 0 0 inf r1\n", 1, "header");
  expect_rejects("gridtrace v2 x\n", 1, "version");
  expect_rejects("gridtrace v1 x\nfrobnicate 1 2\n", 2, "unknown directive");
  expect_rejects("gridtrace v1 x\nresource 1 0 inf r1\n", 2, "dense");
  expect_rejects("gridtrace v1 x\nresource 0 -1 inf r1\n", 2,
                 "non-negative");
  expect_rejects("gridtrace v1 x\nresource 0 5 5 r1\n", 2, "later than");
  expect_rejects("gridtrace v1 x\nresource 0 zero inf r1\n", 2,
                 "malformed");
  expect_rejects("gridtrace v1 x\nresource 0 0 inf\n", 2, "5 fields");
  expect_rejects("gridtrace v1 x\nload 0 0 1 2\n", 2, "undeclared");
  expect_rejects("gridtrace v1 x\nresource 0 0 inf r1\nload 0 3 2 2\n", 3,
                 "end after");
  expect_rejects("gridtrace v1 x\nresource 0 0 inf r1\nload 0 0 1 0\n", 3,
                 "multiplier");
  expect_rejects("gridtrace v1 x\nresource 0 0 inf r1\nload 0 0 1 inf\n",
                 3, "multiplier");
  expect_rejects("gridtrace v1 x\njob 3 0 late\n", 2, "dense");
}

TEST(TraceFormat, SanitizesControlCharactersInNames) {
  GridTrace trace;
  trace.name = "multi word";
  trace.resources = {{0, 0.0, sim::kTimeInfinity, "host\nevil"},
                     {1, 0.0, sim::kTimeInfinity, "tab\there"}};
  // A name with embedded newlines must not split the record: the
  // serialized form has to parse back with the same record count.
  const GridTrace reread = read_trace_string(write_trace_string(trace));
  EXPECT_EQ(reread.name, "multi_word");
  ASSERT_EQ(reread.resources.size(), 2u);
  EXPECT_EQ(reread.resources[0].name, "host_evil");
  EXPECT_EQ(reread.resources[1].name, "tab_here");
}

TEST(TraceFormat, MissingFileThrows) {
  EXPECT_THROW((void)read_trace_file("/nonexistent/grid.trace"),
               std::runtime_error);
}

// ------------------------------------------------------- load timeline --

TEST(LoadTimeline, ComposesOverlappingSegments) {
  LoadTimeline timeline;
  timeline.add(0, 0.0, 10.0, 2.0);
  timeline.add(0, 5.0, 15.0, 3.0);
  timeline.add(1, 0.0, 100.0, 10.0);
  EXPECT_DOUBLE_EQ(timeline.factor(0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(timeline.factor(0, 5.0), 6.0);   // both overlap
  EXPECT_DOUBLE_EQ(timeline.factor(0, 10.0), 3.0);  // [start, end)
  EXPECT_DOUBLE_EQ(timeline.factor(0, 20.0), 1.0);
  EXPECT_DOUBLE_EQ(timeline.factor(2, 5.0), 1.0);
}

/// factor() as a scan of every segment in storage order: the reference
/// the per-resource index must reproduce bit for bit.
double factor_by_full_scan(const LoadTimeline& timeline,
                           grid::ResourceId resource, sim::Time t) {
  double product = 1.0;
  for (const LoadSegment& segment : timeline.segments()) {
    if (segment.resource == resource && segment.start <= t &&
        t < segment.end) {
      product *= segment.multiplier;
    }
  }
  return product;
}

TEST(LoadTimeline, FactorMatchesFullScanBeforeAndAfterSort) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE(seed);
    RngStream rng(seed);
    LoadTimeline timeline;
    // Random overlapping segments on five resources, added unsorted.
    for (int i = 0; i < 40; ++i) {
      const sim::Time start = rng.uniform(0.0, 100.0);
      timeline.add(static_cast<grid::ResourceId>(rng.index(5)), start,
                   start + rng.uniform(0.5, 40.0), rng.uniform(0.2, 3.0));
    }
    for (const bool sorted : {false, true}) {
      if (sorted) {
        timeline.sort();
      }
      for (int probe = 0; probe < 200; ++probe) {
        const auto resource = static_cast<grid::ResourceId>(rng.index(6));
        // Probe segment endpoints too: [start, end) edges must agree.
        const std::vector<LoadSegment>& segments = timeline.segments();
        const LoadSegment& near = segments[rng.index(segments.size())];
        const sim::Time t = probe % 3 == 0   ? near.start
                            : probe % 3 == 1 ? near.end
                                             : rng.uniform(0.0, 150.0);
        EXPECT_EQ(timeline.factor(resource, t),
                  factor_by_full_scan(timeline, resource, t));
      }
    }
  }
}

TEST(LoadTimeline, ValidatesSegments) {
  LoadTimeline timeline;
  EXPECT_THROW(timeline.add(0, -1.0, 2.0, 2.0), std::invalid_argument);
  EXPECT_THROW(timeline.add(0, 2.0, 2.0, 2.0), std::invalid_argument);
  EXPECT_THROW(timeline.add(0, 0.0, 2.0, 0.0), std::invalid_argument);
  EXPECT_THROW(timeline.add(0, 0.0, 2.0, -3.0), std::invalid_argument);
}

// ----------------------------------------------------------- compiler --

TEST(CompileTrace, BuildsPoolLoadAndArrivals) {
  const CompiledScenario scenario = compile_trace(sample_trace());
  EXPECT_EQ(scenario.pool.universe_size(), 3u);
  EXPECT_EQ(scenario.pool.resource(1).departure, 512.0);
  EXPECT_EQ(scenario.pool.resource(2).name, "late");
  EXPECT_EQ(scenario.pool.count_available_at(0.0), 2u);
  EXPECT_EQ(scenario.pool.departures_at(512.0),
            (std::vector<grid::ResourceId>{1}));
  EXPECT_TRUE(scenario.pool.departures_at(100.0).empty());
  // The pool's own change times are late's arrival and doomed's departure.
  EXPECT_EQ(scenario.pool.change_times(sim::kTimeZero, sim::kTimeInfinity),
            (std::vector<sim::Time>{0.1234567890123456789, 512.0}));
  EXPECT_DOUBLE_EQ(scenario.load.factor(0, 15.0), 2.5);
  EXPECT_DOUBLE_EQ(scenario.load.factor(2, 1.0), 1.75);
  EXPECT_EQ(scenario.job_arrivals, sample_trace().jobs);
}

// ----------------------------------------------------------- registry --

TEST(ScenarioRegistry, ListsBuiltinSources) {
  // The archive backends live in src/archive but sit in the same table.
  EXPECT_EQ(scenario_source_names(),
            (std::vector<std::string>{"archive", "bursty", "fitted",
                                      "synthetic", "trace"}));
  for (const std::string& name : scenario_source_names()) {
    const ScenarioSource& source = scenario_source(name);
    EXPECT_EQ(source.name(), name);
    EXPECT_FALSE(source.description().empty());
  }
}

/// One built-in source and a request it builds a non-trivial scenario
/// from.
struct SourceCase {
  std::string source;
  ScenarioRequest request;
  /// Whether the scenario has a machine leaving, which the replay must
  /// keep.
  bool departs = false;
};

std::vector<SourceCase> source_cases() {
  const std::string swf = std::string(AHEFT_TEST_DATA_DIR) +
                          "/sample_clean.swf";
  ScenarioRequest synthetic;
  synthetic.dynamics = {4, 100.0, 0.5};
  synthetic.horizon = 350.0;
  synthetic.stream.jobs = 3;

  ScenarioRequest bursty;
  bursty.dynamics.initial = 8;
  bursty.horizon = 6000.0;
  bursty.seed = 21;
  bursty.bursty.mean_calm = 250.0;
  bursty.bursty.mean_burst = 120.0;
  bursty.bursty.failure_fraction = 0.5;
  bursty.bursty.repair_mean = 200.0;
  bursty.stream.jobs = 4;

  ScenarioRequest archive;
  archive.archive.path = swf;
  archive.horizon = 4000.0;

  ScenarioRequest fitted = archive;
  fitted.seed = 5;
  fitted.stream.jobs = 12;

  ScenarioRequest trace;
  trace.trace_text = write_trace_string(sample_trace());

  return {{"synthetic", synthetic, false},
          {"bursty", bursty, true},
          {"archive", archive, false},
          {"fitted", fitted, false},
          {"trace", trace, true}};
}

class SourceReplay : public testing::TestWithParam<SourceCase> {};

// Build, record, write, read back through the "trace" source, record
// again: the two recordings (every resource window with its departure,
// load segment and arrival record) must be equal.
TEST_P(SourceReplay, RecordedScenarioReplaysExactly) {
  const SourceCase& param = GetParam();
  const CompiledScenario built =
      build_scenario(param.source, param.request);
  const GridTrace recorded = record_scenario(built, "replay");
  ASSERT_FALSE(recorded.resources.empty());
  const bool departs =
      std::any_of(recorded.resources.begin(), recorded.resources.end(),
                  [](const ResourceRecord& r) {
                    return r.departure < sim::kTimeInfinity;
                  });
  EXPECT_EQ(departs, param.departs);

  const std::string path =
      testing::TempDir() + "source_replay_" + param.source + ".trace";
  write_trace_file(path, recorded);
  ScenarioRequest replay_request;
  replay_request.trace_path = path;
  const CompiledScenario replay = build_scenario("trace", replay_request);
  std::remove(path.c_str());

  EXPECT_EQ(record_scenario(replay, "replay"), recorded);
}

INSTANTIATE_TEST_SUITE_P(
    BuiltinSources, SourceReplay, testing::ValuesIn(source_cases()),
    [](const testing::TestParamInfo<SourceCase>& info) {
      return info.param.source;
    });

TEST(ScenarioRegistry, UnknownSourceThrowsListingKnownNames) {
  try {
    (void)build_scenario("swf-archive", ScenarioRequest{});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("swf-archive"), std::string::npos);
    EXPECT_NE(what.find("synthetic"), std::string::npos);
    EXPECT_NE(what.find("bursty"), std::string::npos);
  }
}

TEST(ScenarioRegistry, SyntheticMatchesBuildDynamicPool) {
  ScenarioRequest request;
  request.dynamics = {4, 100.0, 0.5};
  request.horizon = 350.0;
  const CompiledScenario scenario = build_scenario("synthetic", request);
  const grid::ResourcePool direct =
      workloads::build_dynamic_pool(request.dynamics, request.horizon);
  ASSERT_EQ(scenario.pool.universe_size(), direct.universe_size());
  for (grid::ResourceId id = 0; id < direct.universe_size(); ++id) {
    EXPECT_EQ(scenario.pool.resource(id).arrival,
              direct.resource(id).arrival);
  }
  EXPECT_TRUE(scenario.load.empty());
  // 3 changes x 2 arrivals each.
  EXPECT_EQ(scenario.pool.universe_size(), 10u);
  EXPECT_EQ(scenario.pool.change_times(sim::kTimeZero, request.horizon),
            (std::vector<sim::Time>{100.0, 200.0, 300.0}));
}

TEST(ScenarioRegistry, TraceSourceNeedsPathOrText) {
  EXPECT_THROW((void)build_scenario("trace", ScenarioRequest{}),
               std::invalid_argument);
}

TEST(ScenarioRegistry, SweepAxisValidatesEagerly) {
  std::vector<exp::CaseSpec> specs(1);
  EXPECT_THROW(exp::set_scenario_source(specs, "no-such-source"),
               std::invalid_argument);
  // --scenario-source=trace without --trace must fail before the sweep.
  EXPECT_THROW(exp::set_scenario_source(specs, "trace"),
               std::invalid_argument);
  exp::set_scenario_source(specs, "bursty");
  EXPECT_EQ(specs[0].scenario_source, "bursty");
}

TEST(ScenarioRegistry, BurstyIsDeterministicPerSeedAndVariesAcrossSeeds) {
  ScenarioRequest request;
  request.dynamics.initial = 5;
  request.horizon = 5000.0;
  request.seed = 7;
  const CompiledScenario a = build_scenario("bursty", request);
  const CompiledScenario b = build_scenario("bursty", request);
  EXPECT_EQ(record_scenario(a, "x"), record_scenario(b, "x"));

  request.seed = 8;
  const CompiledScenario c = build_scenario("bursty", request);
  EXPECT_NE(record_scenario(a, "x"), record_scenario(c, "x"));
}

TEST(ScenarioRegistry, BurstyHonorsInitialPoolAndHorizon) {
  ScenarioRequest request;
  request.dynamics.initial = 3;
  request.horizon = sim::kTimeZero;
  request.seed = 11;
  const CompiledScenario sizing = build_scenario("bursty", request);
  EXPECT_EQ(sizing.pool.universe_size(), 3u);
  EXPECT_TRUE(sizing.load.empty());

  request.horizon = 4000.0;
  const CompiledScenario full = build_scenario("bursty", request);
  EXPECT_GE(full.pool.universe_size(), 3u);
  EXPECT_EQ(full.pool.count_available_at(0.0), 3u);
  for (const grid::Resource& r : full.pool.all()) {
    EXPECT_LE(r.arrival, request.horizon);
    EXPECT_EQ(r.departure, sim::kTimeInfinity);  // assumption 3
  }
  for (const LoadSegment& segment : full.load.segments()) {
    EXPECT_LE(segment.start, request.horizon);
    EXPECT_GT(segment.multiplier, 1.0);
  }
}

TEST(ScenarioRegistry, GeneratorsEmitWorkflowArrivalRecords) {
  ScenarioRequest request;
  request.dynamics = {4, 300.0, 0.2};
  request.horizon = 1000.0;
  request.seed = 3;
  request.stream.jobs = 5;
  request.stream.interarrival_mean = 120.0;

  // synthetic: fixed spacing, workflow 0 at t = 0.
  const CompiledScenario synthetic = build_scenario("synthetic", request);
  ASSERT_EQ(synthetic.job_arrivals.size(), 5u);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(synthetic.job_arrivals[k].job, k);
    EXPECT_DOUBLE_EQ(synthetic.job_arrivals[k].arrival, 120.0 * k);
  }

  // bursty: exponential gaps — ascending, first at 0, deterministic.
  const CompiledScenario bursty = build_scenario("bursty", request);
  ASSERT_EQ(bursty.job_arrivals.size(), 5u);
  EXPECT_DOUBLE_EQ(bursty.job_arrivals.front().arrival, 0.0);
  for (std::size_t k = 1; k < 5; ++k) {
    EXPECT_GT(bursty.job_arrivals[k].arrival,
              bursty.job_arrivals[k - 1].arrival);
  }
  EXPECT_EQ(bursty.job_arrivals,
            build_scenario("bursty", request).job_arrivals);

  // Arrival records ride the trace round trip like every other record.
  const GridTrace recorded = record_scenario(bursty, "stream");
  EXPECT_EQ(read_trace_string(write_trace_string(recorded)).jobs,
            recorded.jobs);
}

TEST(ScenarioRegistry, FailureBurstsEmitCorrelatedDeparturesWithRepairs) {
  ScenarioRequest request;
  request.dynamics.initial = 8;
  request.horizon = 6000.0;
  request.seed = 21;
  request.bursty.mean_calm = 250.0;
  request.bursty.mean_burst = 120.0;
  request.bursty.failure_fraction = 0.5;
  request.bursty.repair_mean = 200.0;
  const CompiledScenario scenario = build_scenario("bursty", request);

  // Departures exist now, in correlated groups (>= 2 at one burst onset),
  // and each failure is matched by a later replacement arrival.
  std::map<double, std::size_t> departures_at;
  std::size_t failed = 0;
  for (const grid::Resource& r : scenario.pool.all()) {
    if (r.departure < sim::kTimeInfinity) {
      ++failed;
      ++departures_at[r.departure];
      EXPECT_GT(r.departure, r.arrival);
    }
  }
  ASSERT_GT(failed, 0u);
  const bool correlated =
      std::any_of(departures_at.begin(), departures_at.end(),
                  [](const auto& entry) { return entry.second >= 2; });
  EXPECT_TRUE(correlated) << "no burst failed >= 2 machines together";
  std::size_t replacements = 0;
  for (const grid::Resource& r : scenario.pool.all()) {
    replacements += r.arrival > 0.0 ? 1 : 0;
  }
  EXPECT_GE(replacements, failed);

  // The grid never empties, and the pool itself reports each group of
  // removals at its onset, which is where the planner reads them.
  for (const auto& [when, count] : departures_at) {
    EXPECT_GE(scenario.pool.count_available_at(when), 1u);
    EXPECT_EQ(scenario.pool.departures_at(when).size(), count);
  }

  // Bit-identical replay and round trip still hold with failures on.
  EXPECT_EQ(record_scenario(scenario, "f"),
            record_scenario(build_scenario("bursty", request), "f"));
  const GridTrace recorded = record_scenario(scenario, "f");
  EXPECT_EQ(read_trace_string(write_trace_string(recorded)), recorded);
}

TEST(ScenarioRegistry, AheftSurvivesFailureBursts) {
  // Only the adaptive strategy reschedules around announced departures;
  // this pins that a failure-burst scenario runs to completion through
  // the session path with forced adoptions.
  exp::CaseSpec spec;
  spec.app = exp::AppKind::kRandom;
  spec.size = 25;
  spec.dynamics = {6, 200.0, 0.2};
  spec.seed = 97;
  spec.scenario_source = "bursty";
  spec.bursty.mean_calm = 200.0;
  spec.bursty.mean_burst = 100.0;
  spec.bursty.failure_fraction = 0.3;
  spec.bursty.repair_mean = 400.0;
  // Departures only: load spikes that stretch a job past a failed
  // machine's window need restart semantics (DepartureAction::kRequeue,
  // exercised by bench_checkpoint_restart); this historical-mode case
  // keeps them off.
  spec.bursty.spike_fraction = 0.0;
  spec.horizon_factor = 2.0;
  const exp::CaseEnvironment env = exp::build_case_environment(spec);

  core::SessionEnvironment session;
  session.pool = &env.scenario.pool;
  session.load = env.scenario.load.empty() ? nullptr : &env.scenario.load;
  const core::StrategyOutcome outcome =
      core::run_strategy(core::StrategyKind::kAdaptiveAheft,
                         env.workload.dag, env.model, env.model, session);
  EXPECT_GT(outcome.makespan, 0.0);
}

// -------------------------------------------- engine load consumption --

TEST(LoadScaling, StaticRunStretchesBySegmentMultiplier) {
  // Chain of two jobs on a single resource: makespan is the cost sum,
  // and a uniform 2x load segment must exactly double it.
  dag::Dag dag("chain");
  dag.add_job("a");
  dag.add_job("b");
  dag.add_edge(0, 1, 0.0);
  dag.finalize();

  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "only"});
  grid::MachineModel model(2, 1);
  model.set_compute_cost(0, 0, 10.0);
  model.set_compute_cost(1, 0, 5.0);

  core::SessionEnvironment nominal_env;
  nominal_env.pool = &pool;
  const core::StrategyOutcome nominal = core::run_strategy(
      core::StrategyKind::kStaticHeft, dag, model, model, nominal_env);
  EXPECT_DOUBLE_EQ(nominal.makespan, 15.0);

  LoadTimeline load;
  load.add(0, 0.0, sim::kTimeInfinity, 2.0);
  core::SessionEnvironment loaded_env;
  loaded_env.pool = &pool;
  loaded_env.load = &load;
  const core::StrategyOutcome stretched = core::run_strategy(
      core::StrategyKind::kStaticHeft, dag, model, model, loaded_env);
  EXPECT_DOUBLE_EQ(stretched.makespan, 30.0);
}

TEST(LoadScaling, DepartureOverrunReportsClearErrorNotInvariant) {
  // A legal trace can combine a load segment with a finite departure;
  // when the stretch pushes a planned job past the window, kError must
  // explain the unsupported combination, not claim an internal invariant
  // broke. The engine and the dynamic baseline agree, whatever else the
  // config switches on (here, preemption).
  dag::Dag dag("single");
  dag.add_job("a");
  dag.finalize();

  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "only", .arrival = 0.0, .departure = 12.0});
  grid::MachineModel model(1, 1);
  model.set_compute_cost(0, 0, 10.0);  // fits nominally: 10 <= 12

  LoadTimeline load;
  load.add(0, 0.0, sim::kTimeInfinity, 2.0);  // realized 20 > 12
  core::SessionEnvironment env;
  env.pool = &pool;
  env.load = &load;
  for (const bool preemption : {false, true}) {
    env.resilience.preemption = preemption;
    for (const core::StrategyKind kind :
         {core::StrategyKind::kStaticHeft, core::StrategyKind::kDynamic}) {
      try {
        (void)core::run_strategy(kind, dag, model, model, env);
        ADD_FAILURE() << "expected runtime_error from "
                      << core::to_string(kind)
                      << (preemption ? " with preemption" : "");
      } catch (const std::runtime_error& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("load-stretched"), std::string::npos) << what;
        EXPECT_NE(what.find("restart semantics"), std::string::npos) << what;
      }
    }
  }
}

// ------------------------------------------------ deterministic replay --

exp::CaseSpec volatile_spec(const std::string& source) {
  exp::CaseSpec spec;
  spec.app = exp::AppKind::kRandom;
  spec.size = 30;
  spec.dynamics = {5, 150.0, 0.25};
  spec.seed = 1234;
  spec.scenario_source = source;
  spec.bursty.mean_calm = 200.0;
  spec.bursty.mean_burst = 80.0;
  spec.bursty.calm_arrival_mean = 300.0;
  spec.bursty.burst_arrival_mean = 30.0;
  return spec;
}

TEST(Replay, SameSpecSameSeedIsBitIdentical) {
  const exp::CaseSpec spec = volatile_spec("bursty");
  const exp::CaseResult a = exp::run_case(spec);
  const exp::CaseResult b = exp::run_case(spec);
  EXPECT_EQ(a.aheft_makespan, b.aheft_makespan);
  EXPECT_EQ(a.heft_makespan, b.heft_makespan);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.adoptions, b.adoptions);
  EXPECT_EQ(record_scenario(exp::build_case_environment(spec).scenario, "x"),
            record_scenario(exp::build_case_environment(spec).scenario, "x"));
}

/// Records `source`'s environment for a spec, replays it through the
/// "trace" source, and expects the identical makespan and environment.
void expect_faithful_replay(const std::string& source) {
  const exp::CaseSpec spec = volatile_spec(source);
  const exp::CaseEnvironment env = exp::build_case_environment(spec);

  const std::string path = testing::TempDir() + "replay_" + source +
                           ".trace";
  write_trace_file(path, record_scenario(env.scenario, "recorded"));

  exp::CaseSpec replay = spec;
  replay.scenario_source = "trace";
  replay.trace_path = path;
  const exp::CaseEnvironment replay_env =
      exp::build_case_environment(replay);

  EXPECT_EQ(record_scenario(env.scenario, "recorded"),
            record_scenario(replay_env.scenario, "recorded"));
  EXPECT_EQ(env.scenario.load, replay_env.scenario.load);

  const exp::CaseResult live = exp::run_case(spec);
  const exp::CaseResult replayed = exp::run_case(replay);
  EXPECT_EQ(live.aheft_makespan, replayed.aheft_makespan);
  EXPECT_EQ(live.heft_makespan, replayed.heft_makespan);
  EXPECT_EQ(live.evaluations, replayed.evaluations);
  EXPECT_EQ(live.adoptions, replayed.adoptions);
  EXPECT_EQ(live.universe, replayed.universe);
  std::remove(path.c_str());
}

TEST(Replay, RecordedSyntheticRunReplaysIdentically) {
  expect_faithful_replay("synthetic");
}

TEST(Replay, RecordedBurstyRunReplaysIdentically) {
  expect_faithful_replay("bursty");
}

// --------------------------------------------------- dynamics checking --

TEST(ResourceDynamics, RejectsDegenerateInputsWithClearErrors) {
  workloads::ResourceDynamics dynamics;
  dynamics.interval = 0.0;
  try {
    workloads::validate(dynamics);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("interval"),
              std::string::npos);
  }

  dynamics = {};
  dynamics.interval = -5.0;
  EXPECT_THROW(workloads::validate(dynamics), std::invalid_argument);
  EXPECT_THROW(
      (void)workloads::build_dynamic_pool(dynamics, 100.0),
      std::invalid_argument);

  dynamics = {};
  dynamics.fraction = -0.1;
  try {
    workloads::validate(dynamics);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("fraction"),
              std::string::npos);
  }

  dynamics = {};
  dynamics.initial = 0;
  EXPECT_THROW(workloads::validate(dynamics), std::invalid_argument);

  // And the scenario sources funnel through the same validation.
  ScenarioRequest request;
  request.dynamics.interval = 0.0;
  EXPECT_THROW((void)build_scenario("synthetic", request),
               std::invalid_argument);
}

}  // namespace
}  // namespace aheft::traces
