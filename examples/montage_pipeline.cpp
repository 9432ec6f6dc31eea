// Montage pipeline: the third real workflow named in the paper's §4.3
// discussion (11 unique operations; we model the 9 core ones). The example
// also demonstrates DOT export for visualizing generated workflows.
//
// Usage: montage_pipeline [--n=16] [--ccr=2.0] [--seed=5] [--dot=path.dot]
#include <fstream>
#include <iostream>
#include <limits>

#include "core/heft.h"
#include "core/strategy.h"
#include "dag/algorithms.h"
#include "dag/dot.h"
#include "support/env.h"
#include "support/rng.h"
#include "support/table.h"
#include "workloads/apps.h"
#include "workloads/scenario.h"

using namespace aheft;

/// Ceiling on --n: far above any demo size, well below a
/// count whose allocation would fail.
constexpr std::uint64_t kMaxCount = 4096;

/// Ceiling on --ccr: the top of the paper's CCR axis (0.1-10).
constexpr double kMaxCcr = 10.0;

int main(int argc, char** argv) {
  const ArgParser args(argc, argv, {"n", "seed", "ccr", "dot"});
  workloads::AppParams params;
  params.parallelism =
      static_cast<std::size_t>(parse_count(args, "n", 16, kMaxCount));
  params.ccr = parse_real(args, "ccr", 2.0, 0.0, kMaxCcr);
  const std::uint64_t seed =
      parse_count(args, "seed", 5, std::numeric_limits<std::uint64_t>::max());

  RngStream rng(seed);
  RngStream dag_stream = rng.child("dag");
  const workloads::Workload montage =
      workloads::generate_montage(params, dag_stream);

  std::cout << "Montage mosaic with " << params.parallelism
            << " input images: " << montage.dag.job_count() << " jobs, "
            << montage.dag.edge_count() << " edges, "
            << montage.dag.operations().size() << " unique operations, depth "
            << dag::level_widths(montage.dag).size() << ".\n";

  if (args.has("dot")) {
    const std::string path = args.get("dot", "montage.dot");
    std::ofstream out(path);
    out << dag::to_dot(montage.dag);
    std::cout << "DAG written to " << path << " (render with graphviz).\n";
  }

  const workloads::ResourceDynamics dynamics{6, 120.0, 0.3};
  grid::ResourcePool initial;
  for (std::size_t i = 0; i < dynamics.initial; ++i) {
    initial.add(grid::Resource{});
  }
  const grid::MachineModel probe = workloads::build_machine_model(
      montage, dynamics.initial, 0.5, mix64(seed, 17));
  const double horizon =
      core::heft_schedule(montage.dag, probe, initial).makespan() * 4.0;
  const grid::ResourcePool pool =
      workloads::build_dynamic_pool(dynamics, horizon);
  const grid::MachineModel model = workloads::build_machine_model(
      montage, pool.universe_size(), 0.5, mix64(seed, 17));

  core::SessionEnvironment env;
  env.pool = &pool;
  const core::StrategyOutcome heft = core::run_strategy(
      core::StrategyKind::kStaticHeft, montage.dag, model, model, env);
  const core::StrategyOutcome aheft = core::run_strategy(
      core::StrategyKind::kAdaptiveAheft, montage.dag, model, model, env);
  const core::StrategyOutcome minmin = core::run_strategy(
      core::StrategyKind::kDynamic, montage.dag, model, model, env);

  AsciiTable table({"strategy", "makespan", "vs HEFT"});
  table.add_row({"HEFT", format_double(heft.makespan, 1), "1.00"});
  table.add_row({"AHEFT", format_double(aheft.makespan, 1),
                 format_double(aheft.makespan / heft.makespan, 2)});
  table.add_row({"Min-Min", format_double(minmin.makespan, 1),
                 format_double(minmin.makespan / heft.makespan, 2)});
  std::cout << "\n" << table.to_string();
  return 0;
}
