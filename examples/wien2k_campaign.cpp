// WIEN2K campaign: the paper's second real-world workload (Fig. 7) — two
// N-way parallel sections gated by the serial LAPW2_FERMI job. The example
// shows why the paper finds WIEN2K profits less from new resources than
// BLAST: the level structure has a one-job chokepoint.
//
// Usage: wien2k_campaign [--n=64] [--ccr=1.0] [--pool=8] [--interval=150]
//                        [--fraction=0.25] [--seed=7]
#include <iostream>
#include <limits>

#include "core/heft.h"
#include "core/strategy.h"
#include "dag/algorithms.h"
#include "support/env.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"
#include "workloads/apps.h"
#include "workloads/scenario.h"

using namespace aheft;

/// Ceiling on --n and --pool: far above any demo size, well below a
/// count whose allocation would fail.
constexpr std::uint64_t kMaxCount = 4096;

/// Ranges of --ccr, --interval and --fraction: they cover the paper's axes
/// (CCR 0.1-10, Delta 400-1600, delta 0.10-0.25) and the defaults, and keep
/// the pool finite (at most --pool machines arrive every --interval time
/// units, up to four times the static plan's makespan).
constexpr double kMaxCcr = 10.0;
constexpr double kMinInterval = 100.0;
constexpr double kMaxInterval = 1e6;
constexpr double kMaxFraction = 1.0;

int main(int argc, char** argv) {
  const ArgParser args(argc, argv,
                       {"n", "pool", "seed", "ccr", "interval", "fraction"});
  workloads::AppParams params;
  params.parallelism =
      static_cast<std::size_t>(parse_count(args, "n", 64, kMaxCount));
  params.ccr = parse_real(args, "ccr", 1.0, 0.0, kMaxCcr);
  const workloads::ResourceDynamics dynamics{
      static_cast<std::size_t>(parse_count(args, "pool", 8, kMaxCount)),
      parse_real(args, "interval", 150.0, kMinInterval, kMaxInterval),
      parse_real(args, "fraction", 0.25, 0.0, kMaxFraction)};
  const std::uint64_t seed =
      parse_count(args, "seed", 7, std::numeric_limits<std::uint64_t>::max());

  RngStream rng(seed);
  RngStream dag_stream = rng.child("dag");
  const workloads::Workload wien =
      workloads::generate_wien2k(params, dag_stream);

  // Show the level profile: the FERMI chokepoint is the width-1 level
  // between the two parallel sections.
  const auto widths = dag::level_widths(wien.dag);
  std::cout << "WIEN2K workflow: " << wien.dag.job_count()
            << " jobs; level widths:";
  for (const auto w : widths) {
    std::cout << " " << w;
  }
  std::cout << "\n(the interior width-1 level is LAPW2_FERMI — every LAPW2"
               " job waits for it)\n\n";

  grid::ResourcePool initial;
  for (std::size_t i = 0; i < dynamics.initial; ++i) {
    initial.add(grid::Resource{});
  }
  const grid::MachineModel probe = workloads::build_machine_model(
      wien, dynamics.initial, 0.5, mix64(seed, 13));
  const double horizon =
      core::heft_schedule(wien.dag, probe, initial).makespan() * 4.0;
  const grid::ResourcePool pool =
      workloads::build_dynamic_pool(dynamics, horizon);
  const grid::MachineModel model = workloads::build_machine_model(
      wien, pool.universe_size(), 0.5, mix64(seed, 13));

  core::SessionEnvironment env;
  env.pool = &pool;
  const core::StrategyOutcome heft = core::run_strategy(
      core::StrategyKind::kStaticHeft, wien.dag, model, model, env);
  const core::StrategyOutcome aheft = core::run_strategy(
      core::StrategyKind::kAdaptiveAheft, wien.dag, model, model, env);
  const core::StrategyOutcome minmin = core::run_strategy(
      core::StrategyKind::kDynamic, wien.dag, model, model, env);

  AsciiTable table({"strategy", "makespan", "vs HEFT", "reschedules"});
  table.add_row({"HEFT (static)", format_double(heft.makespan, 1), "1.00",
                 "0"});
  table.add_row({"AHEFT (adaptive)", format_double(aheft.makespan, 1),
                 format_double(aheft.makespan / heft.makespan, 2),
                 std::to_string(aheft.adoptions)});
  table.add_row({"Min-Min (dynamic)", format_double(minmin.makespan, 1),
                 format_double(minmin.makespan / heft.makespan, 2), "-"});
  std::cout << table.to_string() << "\nAHEFT improvement: "
            << format_percent(
                   improvement_rate(heft.makespan, aheft.makespan))
            << "\n";
  return 0;
}
