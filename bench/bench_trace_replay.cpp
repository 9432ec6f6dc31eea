// EXP-T1 — HEFT vs AHEFT under trace-driven and bursty grid volatility.
//
// The paper evaluates AHEFT only on fixed-interval synthetic dynamics
// (Table 2/5); this bench drives both strategies through two other
// scenario sources instead: an MMPP-style `bursty` environment (clustered
// arrivals + load spikes) and a `trace` environment replayed from a
// recorded file. It also proves record/replay fidelity: the first case's
// environment is written to a grid trace and re-run through the trace
// source, which must reproduce the identical AHEFT makespan and
// environment (resource windows, load segments and arrivals).
//
// Extra knobs: --trace-out=path keeps the recorded trace file around.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "traces/compiler.h"
#include "traces/trace_format.h"

using namespace aheft;

namespace {

std::vector<exp::CaseSpec> build_specs(Scale scale, std::uint64_t master) {
  std::vector<std::size_t> jobs = {40, 80};
  std::vector<double> ccrs = {0.5, 1.0, 2.0};
  std::size_t instances = 3;
  if (scale == Scale::kSmoke) {
    jobs = {40};
    ccrs = {1.0};
    instances = 1;
  } else if (scale == Scale::kPaper) {
    jobs = {20, 40, 60, 80, 100};
    instances = 25;
  }

  std::vector<exp::CaseSpec> specs;
  for (const std::size_t v : jobs) {
    for (const double ccr : ccrs) {
      for (std::size_t inst = 0; inst < instances; ++inst) {
        exp::CaseSpec spec;
        spec.app = exp::AppKind::kRandom;
        spec.size = v;
        spec.ccr = ccr;
        spec.dynamics = {6, 300.0, 0.2};
        spec.bursty.mean_calm = 400.0;
        spec.bursty.mean_burst = 120.0;
        spec.bursty.calm_arrival_mean = 600.0;
        spec.bursty.burst_arrival_mean = 45.0;
        spec.react_to_variance = true;  // load spikes feed the monitor
        spec.seed = exp::case_seed(master, spec, inst);
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

/// Writes `scenario` to `path`, reads it back through the "trace" source
/// and reports whether the two recordings match: every resource window
/// (departures included), load segment and arrival record.
bool replays_exactly(const traces::CompiledScenario& scenario,
                     const std::string& path) {
  const traces::GridTrace recorded =
      traces::record_scenario(scenario, "bench-replay");
  traces::write_trace_file(path, recorded);
  traces::ScenarioRequest request;
  request.trace_path = path;
  return traces::record_scenario(traces::build_scenario("trace", request),
                                 "bench-replay") == recorded;
}

std::size_t departures(const grid::ResourcePool& pool) {
  std::size_t count = 0;
  for (const grid::Resource& r : pool.all()) {
    count += r.departure < sim::kTimeInfinity ? 1 : 0;
  }
  return count;
}

void report(const char* title, const exp::SweepOutcome& outcome) {
  const exp::GroupStats stats = exp::overall(outcome);
  const double heft = stats.heft.mean();
  const double aheft = stats.aheft.mean();
  AsciiTable table({"strategy", "avg makespan", "vs HEFT"});
  table.add_row({"HEFT (static)", format_double(heft, 1), "1.00"});
  table.add_row({"AHEFT (adaptive)", format_double(aheft, 1),
                 format_double(aheft / heft, 2)});
  std::cout << title << "\n"
            << table.to_string() << "AHEFT improvement over HEFT: "
            << format_percent(stats.improvement())
            << "   (mean adoptions/case: "
            << format_double(stats.adoptions.mean(), 2) << ")\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args = bench::arguments(
      argc, argv,
      {"threads", "csv", "scenario-source", "trace", "archive",
       "contention-policy", "backfill", "contention-aware", "trace-out"});
  const bench::BenchOptions options = bench::parse_options(args);
  std::string trace_path = args.get("trace-out", "");
  const bool keep_trace = !trace_path.empty();
  if (!keep_trace) {
    trace_path = "bench_trace_replay_tmp.trace";
  }

  std::vector<exp::CaseSpec> bursty_specs =
      build_specs(options.scale, options.seed);
  bench::print_header("Trace replay: HEFT vs AHEFT under grid volatility",
                      options, bursty_specs.size());

  // --- replay fidelity: record case 0's environment, re-run from file --
  exp::CaseSpec probe = bursty_specs.front();
  probe.scenario_source = "bursty";
  const exp::CaseEnvironment env = exp::build_case_environment(probe);
  const bool same_environment = replays_exactly(env.scenario, trace_path);
  // The sweep's environments never lose a machine (static HEFT could not
  // finish), so a failure-burst variant proves departures replay too.
  exp::CaseSpec failing = probe;
  failing.bursty.failure_fraction = 0.5;
  const exp::CaseEnvironment failing_env =
      exp::build_case_environment(failing);
  const std::string failing_path = trace_path + ".failures";
  const bool same_failures =
      replays_exactly(failing_env.scenario, failing_path);
  std::remove(failing_path.c_str());

  exp::CaseSpec replay = probe;
  replay.scenario_source = "trace";
  replay.trace_path = trace_path;
  const exp::CaseResult live = exp::run_case(probe);
  const exp::CaseResult replayed = exp::run_case(replay);
  const bool faithful = live.aheft_makespan == replayed.aheft_makespan &&
                        same_environment && same_failures;
  std::cout << "record/replay fidelity: "
            << (faithful ? "identical makespan and environment" : "MISMATCH")
            << " (aheft " << format_double(live.aheft_makespan, 3) << " vs "
            << format_double(replayed.aheft_makespan, 3) << ", "
            << env.scenario.pool.universe_size() << " resources, "
            << env.scenario.load.segments().size()
            << " load segments; failure-burst variant "
            << (same_failures ? "identical" : "MISMATCH") << ", "
            << departures(failing_env.scenario.pool) << " departures)\n\n";

  // --- bursty scenario -------------------------------------------------
  {
    std::vector<exp::CaseSpec> specs = bursty_specs;
    exp::set_scenario_source(specs, "bursty");
    const exp::SweepOutcome outcome = bench::run(options, std::move(specs));
    report("bursty scenario (MMPP arrivals + load spikes):", outcome);
  }

  // --- trace-driven scenario: every DAG rides the recorded grid -------
  {
    std::vector<exp::CaseSpec> specs = bursty_specs;
    exp::set_scenario_source(specs, "trace", trace_path);
    const exp::SweepOutcome outcome = bench::run(options, std::move(specs));
    report("trace-driven scenario (replayed recording):", outcome);
  }

  if (!keep_trace) {
    std::remove(trace_path.c_str());
  } else {
    std::cout << "recorded trace kept at " << trace_path << "\n";
  }
  return faithful ? 0 : 1;
}
