// EXP-R1 — resilience under correlated failure bursts: reject vs
// restart-from-scratch vs Daly checkpointing, plus fair-share preemption.
//
// The bursty scenario source can fail machines in correlated groups
// (failure_fraction) while load spikes stretch running jobs past the
// doomed machines' departure walls — exactly the corner the engine
// historically rejected as unsupported. This bench runs the same
// multi-DAG stream under three departure policies:
//
//   reject    DepartureAction::kFail — a job caught by a departing
//             machine fails its whole workflow (the "reject the run"
//             baseline expressed as data),
//   scratch   DepartureAction::kRequeue with checkpointing disabled —
//             the job runs to the wall, loses everything, and restarts
//             from zero elsewhere,
//   daly      kRequeue plus the Daly checkpoint model — the interrupted
//             job keeps its checkpointed floor progress and restarts
//             from the latest image (paying the read cost).
//
// The closing self-check asserts the resilience contract at the most
// contended stream: Daly checkpointing must strictly improve goodput
// (useful / (useful + lost + overhead) machine-seconds) over
// restart-from-scratch, and both requeue modes must strictly beat the
// reject baseline on completed workflows.
//
// A second section demonstrates fair-share preemption on a monopolizing
// stream (few machines, long jobs, tight arrivals): a starved workflow
// whose stretch clears the deadband may revoke the committed window
// blocking it. The self-check asserts preemption strictly reduces the
// max slowdown versus the same non-preempting fair-share configuration.
//
// Extra knobs: --smoke, --streams=a,b,c, --strategy=heft|aheft|dynamic
// (default aheft), --json=path (per-mode resilience ledgers at full
// precision, uploaded by CI inside the BENCH_stream.json artifact).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "resilience/checkpoint_model.h"

using namespace aheft;

namespace {

/// The failure-burst stream: a volatile pool where every burst fails a
/// correlated third of the live machines and spikes the load on half of
/// the survivors, so plans vetted against nominal costs keep getting
/// caught at departure walls.
exp::CaseSpec burst_spec(Scale scale, std::uint64_t master,
                         std::size_t stream_jobs) {
  exp::CaseSpec spec;
  spec.app = exp::AppKind::kRandom;
  spec.size = scale == Scale::kSmoke ? 20 : 40;
  spec.ccr = 1.0;
  spec.out_degree = 0.25;
  spec.dynamics = {8, 300.0, 0.2};
  spec.scenario_source = "bursty";
  spec.bursty.mean_calm = 300.0;
  spec.bursty.mean_burst = 150.0;
  spec.bursty.calm_arrival_mean = 500.0;
  spec.bursty.burst_arrival_mean = 80.0;
  spec.bursty.spike_fraction = 0.5;
  spec.bursty.spike_min = 2.0;
  spec.bursty.spike_max = 4.0;
  spec.bursty.failure_fraction = 0.45;
  spec.bursty.repair_mean = 250.0;
  spec.react_to_variance = true;
  spec.horizon_factor = 6.0;
  spec.stream_jobs = stream_jobs;
  spec.stream_interarrival = scale == Scale::kSmoke ? 60.0 : 100.0;
  spec.seed = exp::case_seed(master, spec, /*instance=*/stream_jobs);
  return spec;
}

/// The monopolizing stream for the preemption section: a small static
/// pool, long jobs, and arrivals tight enough that early workflows pin
/// every machine while late arrivals starve behind committed windows —
/// the delay held claims alone cannot repair.
exp::CaseSpec monopoly_spec(Scale scale, std::uint64_t master,
                            std::size_t stream_jobs) {
  exp::CaseSpec spec;
  spec.app = exp::AppKind::kRandom;
  spec.size = scale == Scale::kSmoke ? 20 : 30;
  spec.ccr = 0.5;
  spec.out_degree = 0.3;
  spec.dynamics = {4, 1e9, 0.0};  // four machines, never changing
  spec.horizon_factor = 6.0;
  spec.stream_jobs = stream_jobs;
  spec.stream_interarrival = 40.0;
  spec.contention_policy = "fair-share";
  spec.seed = exp::case_seed(master, spec, /*instance=*/stream_jobs);
  return spec;
}

resilience::ResilienceConfig reject_config() {
  resilience::ResilienceConfig config;
  config.departure_action = resilience::DepartureAction::kFail;
  return config;
}

resilience::ResilienceConfig scratch_config() {
  resilience::ResilienceConfig config;
  config.departure_action = resilience::DepartureAction::kRequeue;
  return config;
}

resilience::ResilienceConfig daly_config() {
  resilience::ResilienceConfig config;
  config.departure_action = resilience::DepartureAction::kRequeue;
  config.checkpoint.enabled = true;
  // Jobs average 100 nominal work units; a half-unit image write against
  // a 250-unit per-job MTBF puts Daly's optimum interval near 16 units,
  // so a typical run completes several cheap checkpoints and an
  // interruption forfeits at most one short cycle.
  config.checkpoint.write_cost = 0.5;
  config.checkpoint.read_cost = 0.5;
  config.checkpoint.mtbf = 250.0;
  return config;
}

struct ModeRow {
  std::string mode;
  exp::StreamStrategySummary summary;
};

void add_resilience_row(bench::JsonReport& report,
                        bench::JsonReport::Labels labels,
                        const exp::StreamStrategySummary& s) {
  report.add_row(
      std::move(labels),
      bench::JsonReport::Metrics{
          {"completed", static_cast<double>(s.completed_workflows)},
          {"failed", static_cast<double>(s.failed_workflows)},
          {"revoked_jobs", static_cast<double>(s.revoked_jobs)},
          {"useful_work", s.useful_work},
          {"lost_work", s.lost_work},
          {"checkpoint_overhead", s.checkpoint_overhead},
          {"goodput", s.goodput},
          {"mean_slowdown", s.mean_slowdown},
          {"max_slowdown", s.max_slowdown},
          {"throughput", s.throughput},
          {"span", s.span}});
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args = bench::arguments(
      argc, argv,
      {"smoke", "strategy", "streams", "scenario-source", "trace", "archive",
       "contention-policy", "backfill", "contention-aware", "json"});
  bench::BenchOptions options = bench::parse_options(args);
  if (args.has("smoke")) {
    options.scale = Scale::kSmoke;
  }
  const core::StrategyKind strategy =
      bench::parse_strategy(args, core::StrategyKind::kAdaptiveAheft);
  const std::vector<std::size_t> streams =
      bench::parse_streams(args, {4, 16});

  bench::print_header("Checkpoint/restart under failure bursts (" +
                          core::to_string(strategy) + ")",
                      options, streams.size() * 3 + 2);
  bench::JsonReport report("bench_checkpoint_restart", options);

  bool resilience_checked = false;
  bool resilience_ok = true;
  for (const std::size_t n : streams) {
    std::vector<ModeRow> rows;
    for (const auto& [mode, config] :
         {std::pair<const char*, resilience::ResilienceConfig>{
              "reject", reject_config()},
          {"scratch", scratch_config()},
          {"daly", daly_config()}}) {
      exp::CaseSpec spec = bench::with_cli_environment(
          burst_spec(options.scale, options.seed, n), options);
      spec.resilience = config;
      spec.backfill = options.backfill;
      spec.contention_aware = options.contention_aware;
      if (!options.contention_policy.empty()) {
        spec.contention_policy = options.contention_policy;
      }
      const exp::CaseEnvironment env = exp::build_case_environment(spec);
      const exp::StreamSetup setup = exp::build_stream_setup(spec, env);
      rows.push_back(
          ModeRow{mode, exp::run_stream_strategy(spec, env, setup, strategy)});
      add_resilience_row(report,
                         {{"section", "checkpoint"},
                          {"strategy", core::to_string(strategy)},
                          {"mode", rows.back().mode},
                          {"streams", std::to_string(n)}},
                         rows.back().summary);
    }

    AsciiTable table({"mode", "completed", "failed", "revoked jobs",
                      "goodput", "lost work", "ckpt overhead",
                      "mean slowdown", "throughput/1k"});
    for (const ModeRow& row : rows) {
      const exp::StreamStrategySummary& s = row.summary;
      table.add_row({row.mode, std::to_string(s.completed_workflows),
                     std::to_string(s.failed_workflows),
                     std::to_string(s.revoked_jobs),
                     format_double(s.goodput, 4),
                     format_double(s.lost_work, 0),
                     format_double(s.checkpoint_overhead, 0),
                     format_double(s.mean_slowdown, 2),
                     format_double(s.throughput * 1000.0, 3)});
    }
    std::cout << n << " concurrent workflow(s):\n"
              << table.to_string() << "\n";

    if (n == *std::max_element(streams.begin(), streams.end()) && n > 1) {
      const exp::StreamStrategySummary& reject = rows[0].summary;
      const exp::StreamStrategySummary& scratch = rows[1].summary;
      const exp::StreamStrategySummary& daly = rows[2].summary;
      resilience_checked = true;
      const bool goodput_ok = daly.goodput > scratch.goodput;
      const bool completed_ok =
          scratch.completed_workflows > reject.completed_workflows &&
          daly.completed_workflows > reject.completed_workflows;
      resilience_ok = goodput_ok && completed_ok;
      std::cout << "resilience self-check (" << n << " workflows, "
                << core::to_string(strategy) << "): daly goodput "
                << format_double(daly.goodput, 4) << " vs scratch "
                << format_double(scratch.goodput, 4) << ", completed "
                << daly.completed_workflows << "/"
                << scratch.completed_workflows << " vs reject "
                << reject.completed_workflows << " -> "
                << (resilience_ok ? "PASS" : "FAIL") << "\n\n";
    }
  }

  // ---- fair-share preemption on a monopolizing stream ----------------
  const std::size_t monopoly_streams = 12;
  std::vector<ModeRow> preempt_rows;
  for (const bool preemption : {false, true}) {
    exp::CaseSpec spec = bench::with_cli_environment(
        monopoly_spec(options.scale, options.seed, monopoly_streams),
        options);
    spec.resilience = daly_config();
    spec.resilience.preemption = preemption;
    spec.backfill = options.backfill;
    spec.contention_aware = options.contention_aware;
    const exp::CaseEnvironment env = exp::build_case_environment(spec);
    const exp::StreamSetup setup = exp::build_stream_setup(spec, env);
    preempt_rows.push_back(
        ModeRow{preemption ? "fair-share + preemption" : "fair-share",
                exp::run_stream_strategy(spec, env, setup, strategy)});
    add_resilience_row(report,
                       {{"section", "preemption"},
                        {"strategy", core::to_string(strategy)},
                        {"mode", preemption ? "preempt" : "base"},
                        {"streams", std::to_string(monopoly_streams)}},
                       preempt_rows.back().summary);
  }

  AsciiTable preempt_table({"policy", "mean slowdown", "max slowdown",
                            "revoked jobs", "goodput", "jain"});
  for (const ModeRow& row : preempt_rows) {
    const exp::StreamStrategySummary& s = row.summary;
    preempt_table.add_row({row.mode, format_double(s.mean_slowdown, 2),
                           format_double(s.max_slowdown, 2),
                           std::to_string(s.revoked_jobs),
                           format_double(s.goodput, 4),
                           format_double(s.jain_fairness, 3)});
  }
  std::cout << "monopolizing stream (" << monopoly_streams
            << " workflows, 4 machines):\n"
            << preempt_table.to_string() << "\n";

  const exp::StreamStrategySummary& base = preempt_rows[0].summary;
  const exp::StreamStrategySummary& preempt = preempt_rows[1].summary;
  const bool preemption_ok = preempt.max_slowdown < base.max_slowdown;
  std::cout << "preemption self-check: max slowdown "
            << format_double(preempt.max_slowdown, 4)
            << " (preempting) vs " << format_double(base.max_slowdown, 4)
            << " (non-preempting) -> " << (preemption_ok ? "PASS" : "FAIL")
            << "\n";

  report.write_if_requested(options);
  if ((resilience_checked && !resilience_ok) || !preemption_ok) {
    return 1;
  }
  return 0;
}
