// Record-then-replay through the trace subsystem: generate a volatile
// grid with the "bursty" scenario source, run AHEFT on it, persist the
// environment to a plain-text grid trace, then reload the file through
// the "trace" scenario source and verify the replay reproduces the
// identical makespan and environment: every resource window (departures
// included), load segment and arrival record.
//
// Usage: dynamic_trace_replay [--dag=path] [--seed=3] [--out=path]
//                             [--source=bursty|synthetic]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "core/heft.h"
#include "core/strategy.h"
#include "dag/io.h"
#include "support/env.h"
#include "support/rng.h"
#include "traces/compiler.h"
#include "traces/scenario_source.h"
#include "traces/trace_format.h"

using namespace aheft;

namespace {

constexpr const char* kDemoDag = R"(# demo pipeline: two parallel branches
dag demo-pipeline
job 0 ingest io
job 1 partition cpu
job 2 branchA-1 cpu
job 3 branchA-2 cpu
job 4 branchB-1 cpu
job 5 branchB-2 cpu
job 6 merge cpu
job 7 publish io
edge 0 1 5
edge 1 2 8
edge 1 4 8
edge 2 3 4
edge 4 5 4
edge 3 6 6
edge 5 6 6
edge 6 7 3
)";

grid::MachineModel make_costs(const dag::Dag& workflow,
                              std::size_t universe, std::uint64_t seed) {
  // Deterministic per (seed, job, resource) so the model regenerates
  // identically however large the universe is.
  grid::MachineModel model(workflow.job_count(), universe);
  for (dag::JobId i = 0; i < workflow.job_count(); ++i) {
    RngStream row(mix64(seed, i));
    const double base = row.uniform(5.0, 15.0);
    for (grid::ResourceId j = 0; j < universe; ++j) {
      RngStream cell(mix64(seed, (static_cast<std::uint64_t>(i) << 24) ^ j));
      model.set_compute_cost(i, j, base * cell.uniform(0.75, 1.25));
    }
  }
  return model;
}

core::StrategyOutcome run_once(const dag::Dag& workflow,
                               const traces::CompiledScenario& scenario,
                               std::uint64_t seed,
                               sim::TraceRecorder* trace) {
  const grid::MachineModel model =
      make_costs(workflow, scenario.pool.universe_size(), seed);
  core::SessionEnvironment env;
  env.pool = &scenario.pool;
  env.load = scenario.load.empty() ? nullptr : &scenario.load;
  env.trace = trace;
  core::StrategyConfig config;
  config.planner.scheduler.order_candidates = 4;
  return core::run_strategy(core::StrategyKind::kAdaptiveAheft, workflow,
                            model, model, env, config);
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv, {"seed", "dag", "out", "source"});
  const std::uint64_t seed =
      parse_count(args, "seed", 3, std::numeric_limits<std::uint64_t>::max());
  const std::string out_path = args.get("out", "demo_run.trace");
  const std::string source = args.get("source", "bursty");

  dag::Dag workflow;
  if (args.has("dag")) {
    std::ifstream in(args.get("dag", ""));
    if (!in) {
      std::cerr << "cannot open " << args.get("dag", "") << "\n";
      return 1;
    }
    workflow = dag::read_dag(in);
  } else {
    workflow = dag::read_dag_string(kDemoDag);
    std::cout << "(no --dag given: using the built-in demo pipeline)\n";
  }
  std::cout << "loaded '" << workflow.name() << "': "
            << workflow.job_count() << " jobs, " << workflow.edge_count()
            << " edges\n\n";

  // --- 1. generate a volatile environment through a scenario source ----
  traces::ScenarioRequest request;
  request.dynamics.initial = 3;
  request.dynamics.interval = 20.0;
  request.dynamics.fraction = 0.4;
  request.seed = seed;
  request.bursty.mean_calm = 25.0;
  request.bursty.mean_burst = 15.0;
  request.bursty.calm_arrival_mean = 30.0;
  request.bursty.burst_arrival_mean = 8.0;

  // Size the horizon off a static plan over the t = 0 pool.
  request.horizon = sim::kTimeZero;
  const traces::CompiledScenario sizing =
      traces::build_scenario(source, request);
  const grid::MachineModel sizing_model =
      make_costs(workflow, sizing.pool.universe_size(), seed);
  request.horizon =
      2.0 * core::heft_schedule(workflow, sizing_model, sizing.pool)
                .makespan();

  traces::CompiledScenario scenario = traces::build_scenario(source, request);

  // Inject one predictable failure (paper §3.3): a machine from the
  // initial pool leaves halfway through the static plan, forcing the
  // planner to reschedule (and restart) whatever it hosted. Pick one
  // without load segments — a load spike could stretch a job past the
  // window, which the executor rejects as unsupported. The mutation is
  // part of the environment: it gets recorded and replayed like
  // everything else.
  {
    const sim::Time doom_at = request.horizon / 4.0;
    bool doomed = false;
    for (const grid::Resource& r : scenario.pool.all()) {
      // Only segments starting before the departure matter: the engine
      // samples the load factor at job start, and no job starts on the
      // machine after it is gone.
      const bool spiked_before_doom = std::any_of(
          scenario.load.segments().begin(), scenario.load.segments().end(),
          [&r, doom_at](const traces::LoadSegment& s) {
            return s.resource == r.id && s.start < doom_at;
          });
      if (!spiked_before_doom && r.arrival == sim::kTimeZero) {
        scenario.pool.set_departure(r.id, doom_at);
        std::cout << "machine '" << r.name
                  << "' will leave the grid at t=" << doom_at << "\n";
        doomed = true;
        break;
      }
    }
    if (!doomed) {
      std::cout << "(every initial machine is load-spiked before t="
                << doom_at << "; skipping failure injection)\n";
    }
  }

  std::cout << "scenario source '" << source << "': "
            << scenario.pool.universe_size() << " resources, "
            << scenario.load.segments().size() << " load segments\n";
  for (const grid::Resource& r : scenario.pool.all()) {
    std::cout << "  " << r.name << " present [" << r.arrival << ", "
              << r.departure << ")\n";
  }

  // --- 2. run AHEFT on the live scenario -------------------------------
  sim::TraceRecorder exec_trace;
  const core::StrategyOutcome result =
      run_once(workflow, scenario, seed, &exec_trace);

  std::cout << "\ndecision log:\n";
  for (const core::AdoptionRecord& d : result.decisions) {
    std::ostringstream line;
    line << "  t=" << d.time << " [" << d.event << "] "
         << d.current_makespan << " -> " << d.candidate_makespan;
    if (d.forced) {
      line << " (forced)";
    }
    line << (d.adopted ? "  adopted" : "  declined");
    std::cout << line.str() << "\n";
  }
  std::cout << "\nrealized makespan: " << result.makespan
            << " (initial plan: " << result.initial_makespan
            << ", restarted jobs: " << result.restarts << ")\n\n";

  // --- 3. record the environment to a trace file -----------------------
  const traces::GridTrace recorded =
      traces::record_scenario(scenario, workflow.name());
  traces::write_trace_file(out_path, recorded);
  std::cout << "environment recorded to " << out_path << "\n";

  // --- 4. replay the file through the 'trace' source and verify -------
  traces::ScenarioRequest replay_request;
  replay_request.trace_path = out_path;
  const traces::CompiledScenario replay =
      traces::build_scenario("trace", replay_request);
  const core::StrategyOutcome replayed =
      run_once(workflow, replay, seed, nullptr);

  const bool same_makespan = replayed.makespan == result.makespan;
  const bool same_environment =
      traces::record_scenario(replay, workflow.name()) == recorded;
  std::cout << "replayed makespan:  " << replayed.makespan
            << (same_makespan ? "  (identical)" : "  (MISMATCH!)") << "\n"
            << "environment:        "
            << (same_environment ? "identical" : "MISMATCH") << " ("
            << replay.pool.universe_size() << " resources, "
            << replay.load.segments().size() << " load segments)\n\n";

  std::vector<std::string> jobs;
  std::vector<std::string> machines;
  for (dag::JobId i = 0; i < workflow.job_count(); ++i) {
    jobs.push_back(workflow.job(i).name);
  }
  for (const grid::Resource& r : scenario.pool.all()) {
    machines.push_back(r.name);
  }
  std::cout << "execution trace:\n" << exec_trace.gantt(jobs, machines);

  if (!same_makespan || !same_environment) {
    std::cerr << "replay diverged from the recorded run\n";
    return 1;
  }
  return 0;
}
