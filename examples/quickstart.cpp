// Quickstart: build a workflow DAG, describe a small grid, plan with HEFT,
// let AHEFT adapt when a new machine joins mid-run, then compare all
// three strategies through the unified core::run_strategy entry point.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "core/heft.h"
#include "core/strategy.h"
#include "dag/dag.h"
#include "grid/machine_model.h"
#include "grid/resource_pool.h"
#include "support/env.h"

using namespace aheft;

int main(int argc, char** argv) {
  // Takes no flags: any argument exits 2 naming it.
  const ArgParser args(argc, argv, {});

  // 1. Describe the workflow: a small fork-join pipeline. Edge weights are
  //    the amount of data shipped between jobs (cost units).
  dag::Dag workflow("quickstart");
  const dag::JobId extract = workflow.add_job("extract", "io");
  const dag::JobId clean = workflow.add_job("clean", "cpu");
  const dag::JobId features = workflow.add_job("features", "cpu");
  const dag::JobId train = workflow.add_job("train", "gpuish");
  const dag::JobId report = workflow.add_job("report", "io");
  workflow.add_edge(extract, clean, 8.0);
  workflow.add_edge(extract, features, 6.0);
  workflow.add_edge(clean, train, 4.0);
  workflow.add_edge(features, train, 4.0);
  workflow.add_edge(train, report, 2.0);
  workflow.finalize();

  // 2. Describe the grid: two machines now, a third joins at t = 12.
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "site-a", .arrival = 0.0});
  pool.add(grid::Resource{.name = "site-b", .arrival = 0.0});
  pool.add(grid::Resource{.name = "site-c", .arrival = 12.0});

  // 3. Per-(job, resource) computation costs — the w_{i,j} matrix.
  grid::MachineModel model(workflow.job_count(), pool.universe_size());
  const double w[5][3] = {{6, 7, 5},    // extract
                          {10, 12, 6},  // clean
                          {11, 9, 6},   // features
                          {14, 13, 7},  // train
                          {4, 5, 3}};   // report
  for (dag::JobId i = 0; i < workflow.job_count(); ++i) {
    for (grid::ResourceId j = 0; j < pool.universe_size(); ++j) {
      model.set_compute_cost(i, j, w[i][j]);
    }
  }

  // 4. Static plan over the machines available at t = 0.
  const core::Schedule plan = core::heft_schedule(workflow, model, pool);
  std::cout << "Static HEFT plan (site-c not yet visible):\n"
            << plan.gantt(workflow, pool)
            << "planned makespan: " << plan.makespan() << "\n\n";

  // 5. Adaptive run: the planner hears about site-c at t = 12, evaluates a
  //    reschedule of the remaining jobs, and adopts it if it helps.
  core::StrategyConfig strategy_config;
  strategy_config.planner.scheduler.order_candidates = 4;  // near-tie orders
  sim::TraceRecorder trace;
  core::SessionEnvironment env;
  env.pool = &pool;
  env.trace = &trace;
  const core::StrategyOutcome result =
      core::run_strategy(core::StrategyKind::kAdaptiveAheft, workflow, model,
                         model, env, strategy_config);

  std::cout << "Adaptive run: evaluated " << result.evaluations
            << " event(s), adopted " << result.adoptions
            << " reschedule(s).\n";
  for (const core::AdoptionRecord& decision : result.decisions) {
    std::cout << "  t=" << decision.time << " " << decision.event << ": "
              << decision.current_makespan << " -> "
              << decision.candidate_makespan
              << (decision.adopted ? "  [adopted]" : "  [declined]") << "\n";
  }
  std::cout << "realized makespan: " << result.makespan << " (static plan: "
            << result.initial_makespan << ")\n\n";

  std::vector<std::string> jobs;
  std::vector<std::string> sites;
  for (dag::JobId i = 0; i < workflow.job_count(); ++i) {
    jobs.push_back(workflow.job(i).name);
  }
  for (const grid::Resource& r : pool.all()) {
    sites.push_back(r.name);
  }
  std::cout << "Execution trace:\n" << trace.gantt(jobs, sites) << "\n";

  // 6. All three strategies through the same entry point: every strategy
  //    runs in a session over one shared environment, so the makespans
  //    are directly comparable (the trace above stays the adaptive run's).
  env.trace = nullptr;
  std::cout << "Strategy comparison (core::run_strategy):\n";
  for (const core::StrategyKind kind :
       {core::StrategyKind::kStaticHeft, core::StrategyKind::kAdaptiveAheft,
        core::StrategyKind::kDynamic}) {
    const core::StrategyOutcome outcome = core::run_strategy(
        kind, workflow, model, model, env, strategy_config);
    std::cout << "  " << core::to_string(kind) << ": makespan "
              << outcome.makespan << "\n";
  }
  return 0;
}
