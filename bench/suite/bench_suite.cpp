// bench_suite — the benchmark later performance and simplicity changes
// are judged by.
//
//   bench_suite --workload=NAME [--seed=N] [--seconds=S] [--json=PATH]
//               [--trace=PATH]
//   bench_suite --list[=json]
//
// One process runs one workload: a warm-up repetition, then measured
// repetitions until at least the workload's minimum count has run and
// --seconds (default 20) have passed. Every repetition rebuilds its
// inputs from --seed (default 42) and times set-up and run separately.
// Load is closed and batch: a repetition runs a fixed input to
// completion, and workflow arrivals are fixed in simulated time, so host
// speed never changes the offered load.
//
// The warm-up runs the library's own entry points. Without --trace the
// measured repetitions give the end-to-end metrics, on the library path
// or on one worker (WorkloadInfo::library_timed). With --trace it instead
// alternates an untraced twin repetition with a traced one — counting
// contention policy, counting cost providers, spans around every library
// call — then replays each layer's public functions in probes, reports
// the per-layer metrics, and writes the spans to PATH as Chrome trace
// events.
//
// Every repetition hashes its outputs (per-workflow makespans and waits,
// or the pump's engines and merged sinks) at full precision. The run
// fails when a digest differs from the warm-up's, when a workflow neither
// finished nor failed, or when an output breaks a checked invariant.
//
// --json writes one BENCH_*.json envelope row per repetition plus a
// summary row; the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. `--list` prints the
// metric and workload tables both outputs are generated from.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adapter.h"

using namespace aheft;

namespace {

// ------------------------------------------------------------- tables --

/// One reported metric. `bound` is the share of the parent's median by
/// which a host metric may worsen before compare.py calls it worse (0: no
/// bound). An `exact` metric is deterministic for a fixed seed and build
/// (simulated results, counts): any change is reported.
struct MetricInfo {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
  double bound;
  bool exact;
  /// "end_to_end" (printed untraced), "per_layer" (printed traced), or
  /// "result" (written to --json only: it exists on some workloads).
  const char* scope;
  const char* workloads;  ///< "all" or a comma-separated list
  const char* what;
};

const std::vector<MetricInfo>& metric_table() {
  static const std::vector<MetricInfo> kMetrics = {
      // End to end: host time and memory, untraced, every workload.
      {"setup_s", "s", "lower", 0.25, false, "end_to_end", "all",
       "median host time to build one repetition's inputs"},
      {"run_s", "s", "lower", 0.25, false, "end_to_end", "all",
       "median host time of one repetition"},
      {"jobs_per_s", "1/s", "higher", 0.25, false, "end_to_end", "all",
       "median jobs scheduled per host second, summed over strategies"},
      {"peak_rss_mb", "MB", "lower", 0.10, false, "end_to_end", "all",
       "peak resident set of the process (getrusage)"},
      // End to end, where the workload has them.
      {"case_ms_p50", "ms", "lower", 0.25, false, "result", "paper_ccr",
       "median host ms per single-DAG case, pooled over repetitions"},
      {"case_ms_p99", "ms", "lower", 0.25, false, "result", "paper_ccr",
       "99th-percentile host ms per case, pooled over repetitions"},
      {"aheft_gain_pct", "%", "higher", 0.0, true, "result",
       "paper_ccr,stream_fcfs",
       "simulated mean makespan of AHEFT below HEFT's"},
      {"max_slowdown", "ratio", "lower", 0.0, true, "result",
       "stream_fcfs,fairshare_failures",
       "simulated worst AHEFT contended/solo makespan"},
      {"goodput", "ratio", "higher", 0.0, true, "result", "fairshare_failures",
       "simulated useful / total machine time under revocations"},
      {"failed_share", "ratio", "lower", 0.0, true, "result", "all",
       "(failed + unfinished workflows + digest mismatches) / attempted"},
      // Per layer, from the traced run, every workload (0 = not used).
      {"core.policy.grant_calls", "count", "lower", 0.0, true, "per_layer",
       "all", "ContentionPolicy::grant calls"},
      {"core.policy.commit_calls", "count", "lower", 0.0, true, "per_layer",
       "all", "ContentionPolicy::on_commit calls"},
      {"core.policy.grant_s", "s", "lower", 0.0, false, "per_layer", "all",
       "host time inside grant, timer cost included"},
      {"core.policy.grant_ns", "ns", "lower", 0.0, false, "per_layer", "all",
       "host time per grant call"},
      // Shares of the traced run time, median over traced repetitions.
      // The spans are siblings, so the shares of one workload add up to at
      // most 100%; grant time falls inside them.
      {"core.policy.grant_pct", "%", "lower", 0.0, false, "per_layer", "all",
       "share of run time inside grant, timer cost included"},
      {"exp.case_environment_pct", "%", "lower", 0.0, false, "per_layer",
       "all", "share of run time in build_case_environment (paper_ccr)"},
      {"core.stream.heft_pct", "%", "lower", 0.0, false, "per_layer", "all",
       "share of run time in HEFT streams"},
      {"core.stream.aheft_pct", "%", "lower", 0.0, false, "per_layer", "all",
       "share of run time in AHEFT streams"},
      {"core.stream.dynamic_pct", "%", "lower", 0.0, false, "per_layer", "all",
       "share of run time in dynamic Min-Min streams"},
      {"core.engine.submit_pct", "%", "lower", 0.0, false, "per_layer", "all",
       "share of run time building and submitting the pump's engines"},
      {"sim.drain_pct", "%", "lower", 0.0, false, "per_layer", "all",
       "share of run time draining the pump's session"},
      {"grid.cost_queries.plan", "count", "lower", 0.0, true, "per_layer",
       "all", "estimate queries: the planners' cost-model traffic"},
      {"grid.cost_queries.exec", "count", "lower", 0.0, true, "per_layer",
       "all", "ground-truth queries: the executors' cost-model traffic"},
      {"core.plan.evaluations", "count", "lower", 0.0, true, "per_layer", "all",
       "events the AHEFT planner evaluated"},
      {"core.plan.adoptions", "count", "lower", 0.0, true, "per_layer", "all",
       "reschedules AHEFT adopted"},
      {"core.plan.restarts", "count", "lower", 0.0, true, "per_layer", "all",
       "running jobs cancelled by adopted reschedules"},
      {"resilience.revoked_jobs", "count", "lower", 0.0, true, "per_layer",
       "all", "committed jobs revoked by departures or preemption"},
      {"resilience.lost_work", "work_units", "lower", 0.0, true, "per_layer",
       "all", "simulated machine work redone after revocations"},
      {"sim.epochs", "count", "lower", 0.0, true, "per_layer", "all",
       "tick barriers of the sharded kernel"},
      {"sim.staged_messages", "count", "lower", 0.0, true, "per_layer", "all",
       "cross-shard messages staged at barriers"},
      {"sim.staging_high_water", "count", "lower", 0.0, true, "per_layer",
       "all", "largest staging volume of one barrier"},
      {"sim.trace_intervals", "count", "lower", 0.0, true, "per_layer", "all",
       "trace intervals merged from shard sinks"},
      {"grid.history_observations", "count", "lower", 0.0, true, "per_layer",
       "all", "history observations merged from shard sinks"},
      {"sim.queue.push_pop_ns", "ns", "lower", 0.0, false, "per_layer", "all",
       "probe: EventQueue pop + push at 4096 live events"},
      {"sim.queue.cancel_ns", "ns", "lower", 0.0, false, "per_layer", "all",
       "probe: EventQueue::cancel in shuffled order"},
      {"core.ledger.upsert_commit_ns", "ns", "lower", 0.0, false, "per_layer",
       "all", "probe: ResourceLedger upsert + commit over 4096 resources"},
      {"core.ledger.snapshot_view_us", "us", "lower", 0.0, false, "per_layer",
       "all", "probe: ResourceLedger::snapshot_view over the pool"},
      {"grid.cost_query_ns", "ns", "lower", 0.0, false, "per_layer", "all",
       "probe: CostProvider::compute_cost on the workload's cost model"},
      {"core.schedule.earliest_slot_ns", "ns", "lower", 0.0, false, "per_layer",
       "all", "probe: Schedule::earliest_slot in a HEFT schedule"},
      {"core.schedule.earliest_slot_view_ns", "ns", "lower", 0.0, false,
       "per_layer", "all", "probe: earliest_slot against a ledger view"},
      {"core.plan.upward_ranks_us", "us", "lower", 0.0, false, "per_layer",
       "all", "probe: upward_ranks on the workload's DAG"},
      {"core.plan.heft_ms", "ms", "lower", 0.0, false, "per_layer", "all",
       "probe: heft_schedule on the workload's DAG and pool"},
      {"core.plan.aheft_ms", "ms", "lower", 0.0, false, "per_layer", "all",
       "probe: aheft_schedule from a mid-run session snapshot"},
      {"trace_overhead_pct", "%", "lower", 0.0, false, "per_layer", "all",
       "traced over untraced-twin median run time, minus 100%"},
      // Per layer, where the workload makes the call (span totals).
      {"exp.sweep_s", "s", "lower", 0.0, false, "result", "paper_ccr",
       "span: building the sweep specs"},
      {"exp.case_environment_s", "s", "lower", 0.0, false, "result",
       "paper_ccr", "span: build_case_environment, summed over cases"},
      {"exp.environment_s", "s", "lower", 0.0, false, "result",
       "stream_fcfs,fairshare_failures", "span: build_case_environment"},
      {"exp.stream_setup_s", "s", "lower", 0.0, false, "result",
       "stream_fcfs,fairshare_failures", "span: build_stream_setup"},
      {"core.stream.heft_s", "s", "lower", 0.0, false, "result",
       "paper_ccr,stream_fcfs", "span: HEFT streams (contended + solo)"},
      {"core.stream.aheft_s", "s", "lower", 0.0, false, "result",
       "paper_ccr,stream_fcfs,fairshare_failures",
       "span: AHEFT streams (contended + solo)"},
      {"core.stream.dynamic_s", "s", "lower", 0.0, false, "result",
       "stream_fcfs", "span: dynamic Min-Min streams (contended + solo)"},
      {"pump.inputs_s", "s", "lower", 0.0, false, "result",
       "pump_sharded_sinks", "span: pool, chain, costs, plans"},
      {"core.engine.submit_s", "s", "lower", 0.0, false, "result",
       "pump_sharded_sinks", "span: building and submitting every engine"},
      {"sim.drain_s", "s", "lower", 0.0, false, "result",
       "pump_sharded_sinks", "span: SimulationSession::run"},
      {"sim.events", "count", "lower", 0.0, true, "result",
       "pump_sharded_sinks", "events executed across shards"},
      {"sim.us_per_event", "us", "lower", 0.0, false, "result",
       "pump_sharded_sinks", "sim.drain_s per event"},
  };
  return kMetrics;
}

struct WorkloadInfo {
  const char* name;
  std::size_t min_reps;
  /// Whether the measured repetitions take the library path, as the
  /// warm-up always does. The stream workloads' library path fans solo
  /// runs out on a fresh hardware-sized pool per stream, and on a shared
  /// 4-vCPU host their run time spread 10-13% across ten seeds in one
  /// sweep, against 3-8% on one worker in the next, so they are timed on
  /// one worker.
  bool library_timed;
  const char* why;
  std::function<std::unique_ptr<suite::Workload>()> make;
};

const std::vector<WorkloadInfo>& workload_table() {
  using core::StrategyKind;
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"paper_ccr", 4, true,
       "the paper's own 4.2 sweep, 682 single-DAG cases run serially: AHEFT "
       "runs take ~89% of traced run time, case environments ~11%, policy "
       "grant ~0.3%",
       [] { return std::make_unique<suite::PaperCcr>(); }},
      {"stream_fcfs", 6, false,
       "what users run, 8 streams of 32 contending workflows on FCFS: AHEFT "
       "streams take ~78% of traced run time, dynamic ~15%, HEFT ~7%; policy "
       "grant ~2%, the most of any",
       [] {
         return std::make_unique<suite::StreamWorkload>(
             [](std::uint64_t seed) {
               return suite::stream_fcfs_spec(seed, 32);
             },
             8,
             std::vector<StrategyKind>{StrategyKind::kStaticHeft,
                                       StrategyKind::kAdaptiveAheft,
                                       StrategyKind::kDynamic});
       }},
      {"fairshare_failures", 4, false,
       "4 streams of 16 workflows under failure bursts, fair share with "
       "preemption and Daly requeue: the only workload that revokes and "
       "restarts jobs; AHEFT only",
       [] {
         return std::make_unique<suite::StreamWorkload>(
             [](std::uint64_t seed) {
               return suite::fairshare_failures_spec(seed, 16);
             },
             4, std::vector<StrategyKind>{StrategyKind::kAdaptiveAheft});
       }},
      {"pump_sharded_sinks", 8, true,
       "4096 dedicated chains on 4 shards with trace and history sinks, no "
       "planning: draining events and merging sinks takes ~81% of run time; "
       "the only workload with epoch barriers",
       [] {
         return std::make_unique<suite::Pump>(4096, 64, 4, true);
       }},
  };
  return kWorkloads;
}

// -------------------------------------------------------------- stats --

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartile `i` (1..3) by Python's statistics.quantiles(v, n=4), the
/// default "exclusive" method, so the numbers here match the tools that
/// read them.
double quartile(std::vector<double> v, int i) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  if (n < 2) {
    return v.front();
  }
  const long m = n + 1;
  const long j = std::clamp<long>(i * m / 4, 1, n - 1);
  const long delta = i * m - j * 4;
  return (v[j - 1] * static_cast<double>(4 - delta) +
          v[j] * static_cast<double>(delta)) /
         4.0;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Shortest decimal form that reads back to the same double.
std::string exact(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --------------------------------------------------------------- runs --

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  std::string json;
  std::string trace;
  std::string list;  ///< "", "text" or "json"
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "bench_suite: " << error << "\n"
            << "usage: bench_suite --workload=NAME [--seed=N] [--seconds=S] "
               "[--json=PATH] [--trace=PATH]\n"
               "       bench_suite --list[=json]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    try {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        if (value.empty() ||
            value.find_first_not_of("0123456789") != std::string::npos) {
          throw std::invalid_argument(value);
        }
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
        if (!(options.seconds >= 0.0 && options.seconds <= 3600.0)) {
          throw std::invalid_argument(value);
        }
      } else if (key == "--json") {
        options.json = value;
      } else if (key == "--trace") {
        options.trace = value;
      } else if (key == "--list") {
        options.list = value.empty() ? "text" : value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value in " + arg);
    }
  }
  if (!options.list.empty() && options.list != "text" &&
      options.list != "json") {
    usage("--list takes no value or =json");
  }
  if (options.list.empty() && options.workload.empty()) {
    usage("--workload is required");
  }
  return options;
}

void print_list(const std::string& format) {
  if (format == "json") {
    std::cout << "{\"metrics\": [";
    bool first = true;
    for (const MetricInfo& m : metric_table()) {
      std::cout << (first ? "\n" : ",\n") << "  {\"name\": \"" << m.name
                << "\", \"unit\": \"" << m.unit << "\", \"better\": \""
                << m.better << "\", \"bound\": " << exact(m.bound)
                << ", \"exact\": " << (m.exact ? "true" : "false")
                << ", \"scope\": \"" << m.scope << "\", \"workloads\": \""
                << m.workloads << "\"}";
      first = false;
    }
    std::cout << "\n], \"workloads\": [";
    first = true;
    for (const WorkloadInfo& w : workload_table()) {
      std::cout << (first ? "\n" : ",\n") << "  {\"name\": \"" << w.name
                << "\", \"min_reps\": " << w.min_reps << ", \"why\": \""
                << w.why << "\"}";
      first = false;
    }
    std::cout << "\n]}\n";
    return;
  }
  std::cout << "metrics (bound: worsening share of the parent's median; "
               "exact: deterministic, must not change; -: no bound)\n";
  for (const MetricInfo& m : metric_table()) {
    std::cout << "  " << std::left << std::setw(37) << m.name << std::setw(11)
              << m.unit << std::setw(7) << m.better << std::setw(7)
              << (m.exact ? "exact" : m.bound > 0.0 ? exact(m.bound) : "-")
              << std::setw(11)
              << m.scope << m.workloads << "\n      " << m.what << "\n";
  }
  std::cout << "\nworkloads (min repetitions; why)\n";
  for (const WorkloadInfo& w : workload_table()) {
    std::cout << "  " << std::left << std::setw(20) << w.name << std::setw(4)
              << w.min_reps << w.why << "\n";
  }
}

/// One timed repetition: set-up, then the run; the inputs are destroyed
/// after both timers stop.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::size_t setup_spans = 0;  ///< spans recorded before the run began
  suite::RepOutput out;
};

Rep measure(suite::Workload& workload, std::uint64_t seed, bool library,
            suite::Counters* counters, suite::SpanRecorder* spans) {
  Rep rep;
  const Stopwatch setup_watch;
  std::unique_ptr<suite::Prepared> input = workload.setup(seed, spans);
  rep.setup_s = setup_watch.seconds();
  rep.setup_spans = spans != nullptr ? spans->spans().size() : 0;
  const Stopwatch run_watch;
  rep.out = workload.run(*input, library, counters, spans);
  rep.run_s = run_watch.seconds();
  return rep;
}

/// Outcome tally over every repetition of the invocation.
struct Tally {
  std::uint64_t reference = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;

  void add(const suite::RepOutput& out) {
    attempted += out.attempted;
    failed += out.failed + out.unfinished + out.violations;
    if (out.digest.value() != reference) {
      ++mismatches;
    }
  }
  [[nodiscard]] std::size_t failures() const { return failed + mismatches; }
};

void add_rep_row(suite::Envelope& report, const std::string& workload,
                 const std::string& mode, std::size_t index, const Rep& rep) {
  report.add_row({{"workload", workload},
                  {"mode", mode},
                  {"rep", std::to_string(index)},
                  {"output_digest", hex(rep.out.digest.value())}},
                 {{"setup_s", rep.setup_s},
                  {"run_s", rep.run_s},
                  {"jobs_per_s", rep.out.jobs / rep.run_s},
                  {"attempted", static_cast<double>(rep.out.attempted)},
                  {"failed", static_cast<double>(rep.out.failed +
                                                 rep.out.unfinished +
                                                 rep.out.violations)}});
}

/// median plus .q1/.q3/.min/.max of `samples` under `name`.
void add_spread(suite::Metrics& summary, const std::string& name,
                const std::vector<double>& samples) {
  summary[name] = median(samples);
  summary[name + ".q1"] = quartile(samples, 1);
  summary[name + ".q3"] = quartile(samples, 3);
  summary[name + ".min"] = *std::min_element(samples.begin(), samples.end());
  summary[name + ".max"] = *std::max_element(samples.begin(), samples.end());
}

/// Set-up takes milliseconds, so one sample per repetition is a noisy
/// median. After each measured repetition, set-up runs alone for this share
/// of that repetition's run time, which spreads the set-up samples over the
/// whole invocation as the run samples are.
constexpr double kSetupShare = 0.1;

/// Measured repetitions until the workload's minimum count has run and
/// `seconds` have passed; fills the end-to-end metrics.
void measure_untraced(suite::Workload& workload, const WorkloadInfo& info,
                      const Options& options, Tally& tally,
                      suite::Envelope& report, suite::Metrics& summary) {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> jobs_per_s;
  std::vector<double> case_ms;
  const Stopwatch budget;
  while (run_s.size() < info.min_reps || budget.seconds() < options.seconds) {
    const Rep rep =
        measure(workload, options.seed, info.library_timed, nullptr, nullptr);
    tally.add(rep.out);
    add_rep_row(report, info.name, "measured", run_s.size(), rep);
    setup_s.push_back(rep.setup_s);
    run_s.push_back(rep.run_s);
    jobs_per_s.push_back(rep.out.jobs / rep.run_s);
    case_ms.insert(case_ms.end(), rep.out.case_ms.begin(),
                   rep.out.case_ms.end());
    const Stopwatch extra;
    while (extra.seconds() < kSetupShare * rep.run_s) {
      const Stopwatch watch;
      const std::unique_ptr<suite::Prepared> input =
          workload.setup(options.seed, nullptr);
      setup_s.push_back(watch.seconds());
    }
  }
  add_spread(summary, "setup_s", setup_s);
  summary["setup_samples"] = static_cast<double>(setup_s.size());
  add_spread(summary, "run_s", run_s);
  add_spread(summary, "jobs_per_s", jobs_per_s);
  if (!case_ms.empty()) {
    summary["case_ms_p50"] = percentile(case_ms, 50.0);
    summary["case_ms_p99"] = percentile(case_ms, 99.0);
    summary["case_samples"] = static_cast<double>(case_ms.size());
  }
  summary["peak_rss_mb"] = peak_rss_mb();
  summary["reps"] = static_cast<double>(run_s.size());
}

/// Untraced-twin and traced repetitions in pairs, so both see the same
/// machine state, then the probes; fills the per-layer metrics and writes
/// the first traced repetition's spans to options.trace.
void measure_traced(suite::Workload& workload, const WorkloadInfo& info,
                    const Options& options, Tally& tally,
                    suite::Envelope& report, suite::Metrics& summary) {
  std::vector<double> twin_run_s;
  std::vector<double> traced_run_s;
  std::vector<double> grant_s;
  suite::Counters counters;
  suite::RepOutput layers;
  suite::SpanRecorder first_spans;
  // Per traced repetition: the share of its run time inside grant and
  // inside each span the run opened (set-up spans excluded).
  std::map<std::string, std::vector<double>> run_pct;
  const Stopwatch budget;
  while (twin_run_s.size() < 2 || budget.seconds() < options.seconds) {
    const Rep twin = measure(workload, options.seed, false, nullptr, nullptr);
    tally.add(twin.out);
    add_rep_row(report, info.name, "reference", twin_run_s.size(), twin);
    twin_run_s.push_back(twin.run_s);

    suite::Counters rep_counters;
    suite::SpanRecorder spans;
    const Rep rep =
        measure(workload, options.seed, false, &rep_counters, &spans);
    tally.add(rep.out);
    add_rep_row(report, info.name, "traced", traced_run_s.size(), rep);
    traced_run_s.push_back(rep.run_s);
    grant_s.push_back(rep_counters.grant_s);
    run_pct["core.policy.grant_pct"].push_back(100.0 * rep_counters.grant_s /
                                               rep.run_s);
    for (const auto& [name, seconds] : spans.totals_s(rep.setup_spans)) {
      run_pct[name + "_pct"].push_back(100.0 * seconds / rep.run_s);
    }
    if (traced_run_s.size() == 1) {
      counters = rep_counters;
      layers = rep.out;
      first_spans = std::move(spans);
    }
  }

  for (const MetricInfo& m : metric_table()) {
    if (std::string(m.scope) == "per_layer") {
      summary[m.name] = 0.0;  // a layer the workload never calls
    }
  }
  for (const auto& [name, value] : layers.layer) {
    summary[name] = value;
  }
  summary["core.policy.grant_calls"] =
      static_cast<double>(counters.grant_calls);
  summary["core.policy.commit_calls"] =
      static_cast<double>(counters.commit_calls);
  summary["core.policy.grant_s"] = median(grant_s);
  summary["core.policy.grant_ns"] =
      counters.grant_calls > 0
          ? median(grant_s) * 1e9 / static_cast<double>(counters.grant_calls)
          : 0.0;
  summary["grid.cost_queries.plan"] =
      static_cast<double>(counters.plan_queries);
  summary["grid.cost_queries.exec"] =
      static_cast<double>(counters.exec_queries);
  for (const auto& [name, seconds] : first_spans.totals_s()) {
    summary[name + "_s"] = seconds;
  }
  for (const auto& [name, shares] : run_pct) {
    summary[name] = median(shares);
  }
  if (summary.count("sim.events") > 0 && summary["sim.events"] > 0.0) {
    summary["sim.us_per_event"] =
        summary["sim.drain_s"] * 1e6 / summary["sim.events"];
  }
  summary["trace_overhead_pct"] =
      100.0 * (median(traced_run_s) / median(twin_run_s) - 1.0);
  add_spread(summary, "reference_run_s", twin_run_s);
  add_spread(summary, "traced_run_s", traced_run_s);
  summary["reps"] = static_cast<double>(traced_run_s.size());

  // Probes run last, on a fresh copy of the workload's inputs.
  const std::unique_ptr<suite::Prepared> input =
      workload.setup(options.seed, nullptr);
  for (const auto& [name, value] :
       suite::run_probes(workload.probe_subject(*input), options.seed)) {
    summary[name] = value;
  }
  first_spans.write_chrome(options.trace);
}

int run(const Options& options, const WorkloadInfo& info) {
  const std::unique_ptr<suite::Workload> workload = info.make();
  const bool traced = !options.trace.empty();
  suite::Envelope report = suite::make_envelope(options.seed);

  // Warm-up: fills caches and lazy state, and fixes the reference digest.
  const Rep warmup = measure(*workload, options.seed, true, nullptr, nullptr);
  Tally tally;
  tally.reference = warmup.out.digest.value();
  tally.add(warmup.out);
  add_rep_row(report, info.name, "warmup", 0, warmup);

  suite::Metrics summary;
  if (traced) {
    measure_traced(*workload, info, options, tally, report, summary);
  } else {
    measure_untraced(*workload, info, options, tally, report, summary);
  }
  for (const auto& [name, value] : warmup.out.simulated) {
    summary[name] = value;
  }
  summary["failed_share"] = static_cast<double>(tally.failures()) /
                            static_cast<double>(std::max<std::size_t>(
                                tally.attempted, 1));
  summary["attempted"] = static_cast<double>(tally.attempted);
  summary["failed"] = static_cast<double>(tally.failed);
  summary["digest_mismatches"] = static_cast<double>(tally.mismatches);

  const bool correct = tally.failures() == 0 && tally.attempted > 0;
  report.add_row(
      {{"workload", info.name},
       {"mode", traced ? "traced" : "untraced"},
       {"stat", "summary"},
       {"output_digest", hex(tally.reference)},
       {"correct", correct ? "true" : "false"},
       {"compiler", __VERSION__},
       {"nproc", std::to_string(suite::host_cpus())},
       {"seconds", exact(options.seconds)}},
      suite::Envelope::Metrics(summary.begin(), summary.end()));
  if (!options.json.empty()) {
    report.write(options.json);
  }

  // Human-readable summary, then the one-line result.
  const std::string scope = traced ? "per_layer" : "end_to_end";
  std::ostringstream metrics;
  bool first = true;
  std::cout << info.name << " seed=" << options.seed << " reps="
            << exact(summary["reps"]) << " digest=" << hex(tally.reference)
            << (correct ? " correct" : " INCORRECT") << "\n";
  for (const MetricInfo& m : metric_table()) {
    const auto it = summary.find(m.name);
    const bool printed = std::string(m.scope) == scope;
    if (it == summary.end()) {
      if (printed) {
        std::cerr << "bench_suite: metric " << m.name << " missing\n";
        return 1;
      }
      continue;
    }
    std::cout << "  " << std::left << std::setw(37) << m.name << " "
              << std::setw(22) << exact(it->second) << " " << m.unit << "\n";
    if (printed) {
      metrics << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << exact(it->second) << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failures() << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (!options.list.empty()) {
    print_list(options.list);
    return 0;
  }
  for (const WorkloadInfo& info : workload_table()) {
    if (options.workload == info.name) {
      return run(options, info);
    }
  }
  usage("unknown workload '" + options.workload + "'");
}
