// EXP-S3 — contention-aware planning under multi-DAG workflow streams.
//
// PR 4's ResourceLedger gave the session one per-machine reservation
// timeline, but planning passes kept estimating against an empty grid:
// in a contended stream every HEFT/AHEFT plan was systematically
// optimistic — it piled the workflows onto the same few machines and let
// FCFS serialization absorb the error. With contention-aware planning
// (PlannerConfig::contention_aware) every pass snapshots the ledger into
// an AvailabilityView and fits its EST searches into the view's free
// gaps, so plans route around competitors that already hold the machines
// and re-evaluations react to competitors arriving and finishing.
//
// This bench prices that difference. For 4 and 16 concurrent workflow
// instances (bursty arrivals, volatile pool, FCFS arbitration) it runs
// the same stream three ways over one identical environment and setup:
//
//   aheft-blind   adaptive AHEFT, ledger-invisible planning (PR 4),
//   aheft-view    adaptive AHEFT planning against the ledger snapshot,
//   dynamic       the just-in-time Min-Min baseline (already ledger-
//                 arbitrated per decision; its release-time greedy-EFT
//                 scale prices the same view under --contention-aware).
//
// The closing self-check asserts the tentpole's contract at the largest
// stream: AHEFT-with-view must strictly improve the max slowdown over
// ledger-blind AHEFT (the workflow hurt worst by contention gains the
// most from plans that respect the reservation timelines).
//
// Extra knobs: --smoke, --streams=a,b,c,
// --contention-policy=fcfs|priority|fair-share, --backfill, --json=path
// (per-mode slowdown/wait/restart rows at full precision, uploaded by CI
// into the BENCH_stream.json artifact).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace aheft;

namespace {

exp::CaseSpec stream_spec(Scale scale, std::uint64_t master,
                          std::size_t stream_jobs,
                          const bench::BenchOptions& options) {
  exp::CaseSpec spec;
  spec.app = exp::AppKind::kRandom;
  spec.size = scale == Scale::kSmoke ? 20 : 40;
  spec.ccr = 1.0;
  spec.out_degree = 0.25;
  spec.dynamics = {8, 300.0, 0.2};
  spec.scenario_source = "bursty";
  spec.bursty.mean_calm = 400.0;
  spec.bursty.mean_burst = 120.0;
  spec.bursty.calm_arrival_mean = 500.0;
  spec.bursty.burst_arrival_mean = 60.0;
  spec.react_to_variance = true;  // load spikes trigger re-planning too
  spec.horizon_factor = 4.0;
  spec.stream_jobs = stream_jobs;
  // Tight arrivals: plans only benefit from the ledger picture when
  // several workflows genuinely overlap on the same machines.
  spec.stream_interarrival = 60.0;
  if (!options.contention_policy.empty()) {
    spec.contention_policy = options.contention_policy;
  }
  spec.backfill = options.backfill;
  spec.seed = exp::case_seed(master, spec, /*instance=*/stream_jobs);
  return spec;
}

struct ModeRow {
  std::string mode;
  exp::StreamStrategySummary summary;
};

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args = bench::arguments(
      argc, argv,
      {"smoke", "streams", "scenario-source", "trace", "archive",
       "contention-policy", "backfill", "contention-aware", "json"});
  bench::BenchOptions options = bench::parse_options(args);
  if (args.has("smoke")) {
    options.scale = Scale::kSmoke;
  }

  const std::vector<std::size_t> streams = bench::parse_streams(args, {4, 16});

  bench::print_header(
      "Contention-aware planning: AHEFT with ledger view vs blind vs dynamic",
      options, streams.size() * 3);
  bench::JsonReport report("bench_ledger_aware_planning", options);

  bool contract_checked = false;
  bool contract_ok = true;
  for (const std::size_t n : streams) {
    // One environment and one materialized setup per stream size: the
    // modes differ only in how the strategies plan, never in the grid,
    // the DAGs, or the cost matrices they plan over.
    const exp::CaseSpec blind = bench::with_cli_environment(
        stream_spec(options.scale, options.seed, n, options), options);
    exp::CaseSpec aware = blind;
    aware.contention_aware = true;
    const exp::CaseEnvironment env = exp::build_case_environment(blind);
    const exp::StreamSetup setup = exp::build_stream_setup(blind, env);

    std::vector<ModeRow> rows;
    rows.push_back(ModeRow{
        "aheft-blind",
        exp::run_stream_strategy(blind, env, setup,
                                 core::StrategyKind::kAdaptiveAheft)});
    rows.push_back(ModeRow{
        "aheft-view",
        exp::run_stream_strategy(aware, env, setup,
                                 core::StrategyKind::kAdaptiveAheft)});
    rows.push_back(ModeRow{
        "dynamic",
        exp::run_stream_strategy(
            options.contention_aware ? aware : blind, env, setup,
            core::StrategyKind::kDynamic)});

    AsciiTable table({"mode", "mean slowdown", "max slowdown", "mean wait",
                      "max wait", "restarts", "jain", "throughput/1k"});
    for (const ModeRow& row : rows) {
      const exp::StreamStrategySummary& s = row.summary;
      table.add_row({row.mode, format_double(s.mean_slowdown, 2),
                     format_double(s.max_slowdown, 2),
                     format_double(s.mean_wait, 1),
                     format_double(s.max_wait, 1),
                     std::to_string(s.restarts),
                     format_double(s.jain_fairness, 3),
                     format_double(s.throughput * 1000.0, 3)});
      report.add_stream_row(
          {{"mode", row.mode}, {"streams", std::to_string(n)}}, s);
    }
    std::cout << n << " concurrent workflow(s), " << setup.instances.size()
              << " instances, " << env.scenario.pool.universe_size()
              << " machines in the universe:\n"
              << table.to_string() << "\n";

    // The tentpole's contract, asserted at the most contended stream:
    // plans that respect the ledger must strictly improve the worst
    // per-workflow slowdown over ledger-blind plans.
    if (n == *std::max_element(streams.begin(), streams.end()) && n > 1) {
      const exp::StreamStrategySummary& blind_sum = rows[0].summary;
      const exp::StreamStrategySummary& view_sum = rows[1].summary;
      contract_checked = true;
      contract_ok = view_sum.max_slowdown < blind_sum.max_slowdown;
      std::cout << "contention-aware self-check (" << n << " workflows): "
                << "aheft-view max slowdown "
                << format_double(view_sum.max_slowdown, 4) << " vs blind "
                << format_double(blind_sum.max_slowdown, 4) << ", restarts "
                << view_sum.restarts << " vs " << blind_sum.restarts
                << " -> " << (contract_ok ? "PASS" : "FAIL") << "\n";
    }
  }
  report.write_if_requested(options);
  return contract_checked && !contract_ok ? 1 : 0;
}
