// EXP-S1 — strategy comparison under multi-DAG workflow streams.
//
// The paper evaluates static HEFT, dynamic Min-Min, and adaptive AHEFT
// on one workflow at a time; a production grid serves many at once. This
// bench submits 1, 4, and 16 concurrent workflow instances (arrival
// records from the `bursty` scenario source, exponential inter-arrival
// gaps) into one shared SimulationSession per strategy, so instances
// contend for the same volatile machines, and reports per-workflow
// makespan statistics, slowdown versus an uncontended solo run of the
// same instance, and aggregate throughput.
//
// The whole table is deterministic for a fixed --seed; the closing
// determinism probe re-runs one stream case and fails the bench if any
// per-workflow makespan moved.
//
// Extra knobs: --smoke (alias for --scale=smoke, used by CI),
// --streams=a,b,c to override the concurrency axis,
// --contention-policy=fcfs|priority|fair-share to swap the session's
// machine arbitration (CI smoke-runs every built-in policy), --backfill,
// --shards=N to run every stream session on N parallel event-loop
// shards, --history to feed each strategy a performance-history
// repository (its merged fingerprint joins the determinism probe — the
// sharded-AHEFT bit-determinism gate CI runs with --shards=2 --history),
// and --json=path (per-strategy makespan/wait/jain rows at full
// precision, uploaded by CI as the BENCH_stream.json artifact).
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "bench_util.h"

using namespace aheft;

namespace {

exp::CaseSpec stream_spec(Scale scale, std::uint64_t master,
                          std::size_t stream_jobs,
                          const std::string& policy, bool backfill,
                          bool contention_aware) {
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
  spec.react_to_variance = true;  // load spikes feed the monitor
  spec.horizon_factor = 4.0;      // arrivals keep coming while streams drain
  spec.stream_jobs = stream_jobs;
  spec.stream_interarrival = scale == Scale::kSmoke ? 150.0 : 250.0;
  if (!policy.empty()) {
    spec.contention_policy = policy;
  }
  spec.backfill = backfill;
  spec.contention_aware = contention_aware;
  spec.seed = exp::case_seed(master, spec, /*instance=*/stream_jobs);
  return spec;
}

void report(std::size_t streams, const exp::StreamCaseResult& result) {
  AsciiTable table({"strategy", "mean makespan", "max makespan",
                    "mean slowdown", "max wait", "jain", "throughput/1k",
                    "adoptions"});
  const auto row = [&](const char* name,
                       const exp::StreamStrategySummary& s) {
    table.add_row({name, format_double(s.mean_makespan, 1),
                   format_double(s.max_makespan, 1),
                   format_double(s.mean_slowdown, 2),
                   format_double(s.max_wait, 1),
                   format_double(s.jain_fairness, 3),
                   format_double(s.throughput * 1000.0, 3),
                   std::to_string(s.adoptions)});
  };
  row("HEFT (static)", result.heft);
  row("Min-Min (dynamic)", result.minmin);
  row("AHEFT (adaptive)", result.aheft);
  std::cout << streams << " concurrent workflow(s), " << result.universe
            << " machines in the universe:\n"
            << table.to_string() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args = bench::arguments(
      argc, argv,
      {"smoke", "streams", "shards", "history", "scenario-source", "trace",
       "archive", "contention-policy", "backfill", "contention-aware", "json"});
  bench::BenchOptions options = bench::parse_options(args);
  if (args.has("smoke")) {
    options.scale = Scale::kSmoke;
  }

  const std::vector<std::size_t> streams =
      bench::parse_streams(args, {1, 4, 16});
  const std::vector<std::size_t> shard_axis = bench::parse_shards(args, {1});
  if (shard_axis.size() != 1) {
    std::cerr << "bench_multi_dag_stream takes a single --shards value "
                 "(applied to every stream session)\n";
    return 2;
  }
  const std::size_t shards = shard_axis.front();
  const bool use_history = args.has("history");

  const std::string& policy = options.contention_policy;
  bench::print_header(
      "Multi-DAG workflow streams: HEFT vs Min-Min vs AHEFT (policy: " +
          (policy.empty() ? std::string("fcfs") : policy) +
          ", shards: " + std::to_string(shards) +
          (use_history ? ", history on" : "") + ")",
      options, streams.size());
  bench::JsonReport json("bench_multi_dag_stream", options);

  const auto make_spec = [&](std::size_t stream_jobs) {
    exp::CaseSpec spec = bench::with_cli_environment(
        stream_spec(options.scale, options.seed, stream_jobs, policy,
                    options.backfill, options.contention_aware),
        options);
    // Applied after seeding so the generated workload and scenario stay
    // those of the serial, history-free configuration.
    spec.shards = shards;
    spec.use_history = use_history;
    return spec;
  };

  std::vector<exp::StreamCaseResult> results;
  results.reserve(streams.size());
  for (const std::size_t n : streams) {
    results.push_back(exp::run_stream_case(make_spec(n)));
    report(n, results.back());
    const exp::StreamCaseResult& r = results.back();
    const std::string policy_label =
        policy.empty() ? std::string("fcfs") : policy;
    for (const auto& [strategy, summary] :
         {std::pair<const char*, const exp::StreamStrategySummary*>{
              "heft", &r.heft},
          {"dynamic", &r.minmin},
          {"aheft", &r.aheft}}) {
      json.add_stream_row({{"strategy", strategy},
                           {"policy", policy_label},
                           {"streams", std::to_string(n)},
                           {"shards", std::to_string(shards)},
                           {"history", use_history ? "on" : "off"}},
                          *summary);
    }
  }
  json.write_if_requested(options);

  // Determinism probe: the acceptance bar for stream experiments is
  // bit-identical per-workflow makespans under a fixed seed — and, with
  // --history, a byte-identical merged history fingerprint (at shards>1
  // this exercises the per-shard delta sinks and their barrier merge).
  // Reuse the main loop's result as the first run.
  const std::size_t probe_index = streams.size() > 1 ? 1 : 0;
  const std::size_t probe = streams[probe_index];
  const exp::StreamCaseResult& a = results[probe_index];
  const exp::StreamCaseResult b = exp::run_stream_case(make_spec(probe));
  const auto history_identical = [](const exp::StreamStrategySummary& x,
                                    const exp::StreamStrategySummary& y) {
    return x.history_observations == y.history_observations &&
           x.history_estimates == y.history_estimates;
  };
  const bool deterministic = a.heft.makespans == b.heft.makespans &&
                             a.aheft.makespans == b.aheft.makespans &&
                             a.minmin.makespans == b.minmin.makespans &&
                             a.heft.waits == b.heft.waits &&
                             a.aheft.waits == b.aheft.waits &&
                             a.minmin.waits == b.minmin.waits &&
                             history_identical(a.heft, b.heft) &&
                             history_identical(a.aheft, b.aheft) &&
                             history_identical(a.minmin, b.minmin);
  std::cout << "determinism probe (" << probe << " workflows, re-run): "
            << (deterministic ? "bit-identical per-workflow makespans"
                              : "MISMATCH");
  if (use_history) {
    std::cout << " (history fingerprint "
              << (history_identical(a.aheft, b.aheft) ? "identical"
                                                      : "MISMATCH")
              << ", " << a.aheft.history_observations
              << " AHEFT observations)";
  }
  std::cout << "\n";
  return deterministic ? 0 : 1;
}
