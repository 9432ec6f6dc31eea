// EXP-A2 — ablation on estimation accuracy (ours; motivated by the
// Sakellariou–Zhao policy [14] the paper contrasts with).
//
// The paper assumes perfect cost estimates (§4.1). Here the Planner's
// predictor is off by a uniform ±error factor while the grid behaves per
// the ground truth. Variants: plain AHEFT on noisy estimates; AHEFT that
// also reacts to performance-variance events; and AHEFT whose predictor
// blends in the Performance History Repository (the Fig. 1 feedback loop).
#include <iostream>

#include "bench_util.h"
#include "core/heft.h"
#include "core/strategy.h"
#include "grid/predictor.h"
#include "support/rng.h"
#include "workloads/random_dag.h"
#include "workloads/scenario.h"

using namespace aheft;

namespace {

struct CaseBundle {
  workloads::Workload workload;
  grid::ResourcePool pool;
  grid::MachineModel model;
};

CaseBundle make_case(std::uint64_t seed) {
  RngStream rng(seed);
  workloads::RandomDagParams params;
  params.jobs = 60;
  params.ccr = 1.0;
  params.out_degree = 0.3;
  RngStream dag_stream = rng.child("dag");
  workloads::Workload w =
      workloads::generate_random_workload(params, dag_stream);
  const workloads::ResourceDynamics dynamics{10, 400.0, 0.2};
  grid::ResourcePool first;
  for (std::size_t i = 0; i < dynamics.initial; ++i) {
    first.add(grid::Resource{});
  }
  const grid::MachineModel probe = workloads::build_machine_model(
      w, dynamics.initial, 0.5, mix64(seed, 5));
  const double horizon =
      core::heft_schedule(w.dag, probe, first).makespan();
  grid::ResourcePool pool = workloads::build_dynamic_pool(dynamics, horizon);
  grid::MachineModel model = workloads::build_machine_model(
      w, pool.universe_size(), 0.5, mix64(seed, 5));
  return CaseBundle{std::move(w), std::move(pool), std::move(model)};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::parse_options(bench::arguments(argc, argv, {}));
  std::size_t repeats = options.scale == Scale::kSmoke ? 2 : 10;
  if (options.scale == Scale::kPaper) {
    repeats = 50;
  }
  bench::print_header("Ablation — estimate inaccuracy", options,
                      repeats * 4 * 3);

  AsciiTable table({"estimate error", "plain AHEFT", "+variance reaction",
                    "+history blending", "oracle (error 0)"});
  for (const double error : {0.0, 0.1, 0.2, 0.4}) {
    OnlineStats plain;
    OnlineStats reactive;
    OnlineStats blended;
    OnlineStats oracle;
    for (std::size_t i = 0; i < repeats; ++i) {
      const CaseBundle c = make_case(mix64(options.seed, i));
      const grid::NoisyPredictor noisy(c.model, error, mix64(options.seed, i));

      core::SessionEnvironment env;
      env.pool = &c.pool;
      {  // oracle: perfect estimates
        const core::StrategyOutcome outcome =
            core::run_strategy(core::StrategyKind::kAdaptiveAheft,
                               c.workload.dag, c.model, c.model, env);
        oracle.add(outcome.makespan);
      }
      {  // plain: trusts the wrong numbers, reacts only to pool changes
        const core::StrategyOutcome outcome =
            core::run_strategy(core::StrategyKind::kAdaptiveAheft,
                               c.workload.dag, noisy, c.model, env);
        plain.add(outcome.makespan);
      }
      {  // reacts to observed deviations as well
        core::StrategyConfig config;
        config.planner.react_to_variance = true;
        config.planner.variance_threshold = 0.10;
        const core::StrategyOutcome outcome =
            core::run_strategy(core::StrategyKind::kAdaptiveAheft,
                               c.workload.dag, noisy, c.model, env, config);
        reactive.add(outcome.makespan);
      }
      {  // additionally feeds observations back into the predictor
        core::StrategyConfig config;
        config.planner.react_to_variance = true;
        config.planner.variance_threshold = 0.10;
        grid::PerformanceHistoryRepository history(0.7);
        const grid::HistoryBlendingPredictor predictor(noisy, c.workload.dag,
                                                       history);
        core::SessionEnvironment learning = env;
        learning.history = &history;
        const core::StrategyOutcome outcome = core::run_strategy(
            core::StrategyKind::kAdaptiveAheft, c.workload.dag, predictor,
            c.model, learning, config);
        blended.add(outcome.makespan);
      }
    }
    table.add_row({format_percent(error, 0), format_double(plain.mean(), 0),
                   format_double(reactive.mean(), 0),
                   format_double(blended.mean(), 0),
                   format_double(oracle.mean(), 0)});
  }
  std::cout << table.to_string() << "\n"
            << "Reading: reacting to variance events and learning from the\n"
               "history repository recovers part of the accuracy loss.\n";
  return 0;
}
