// Shared scaffolding for the table/figure reproduction benches.
//
// Every bench accepts:
//   --scale=smoke|default|paper   (or $AHEFT_SCALE; default: default)
//   --threads=N                   (0 = hardware concurrency)
//   --seed=N                      (master seed, default 42)
//   --csv=path                    (optional per-case dump)
//   --scenario-source=NAME        (grid environment backend; default keeps
//                                  each sweep's own setting, usually
//                                  "synthetic")
//   --trace=path                  (trace file for --scenario-source=trace)
//   --archive=path                (SWF/GWA log for
//                                  --scenario-source=archive|fitted)
//   --help                        (lists the flags plus every registered
//                                  scenario source and contention policy)
//   --contention-policy=NAME      (cross-workflow machine arbitration for
//                                  stream benches: fcfs, priority,
//                                  fair-share, or a custom registration)
//   --backfill                    (session-level ledger backfilling for
//                                  stream benches; changes grants, so it
//                                  is never the default)
//   --contention-aware            (planning passes fit into the session
//                                  ledger's availability snapshot; off by
//                                  default so the contention-blind plans
//                                  stay bit-stable across PRs)
//   --json=path                   (structured per-configuration results —
//                                  every row's makespan/wait/jain at full
//                                  double precision — so CI can archive
//                                  the perf trajectory machine-readably)
// and prints measured values side by side with the paper's published
// numbers. Default scale keeps each bench in the seconds-to-minutes range;
// paper scale replays the full published grids.
#ifndef AHEFT_BENCH_BENCH_UTIL_H_
#define AHEFT_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/contention_policy.h"
#include "core/strategy.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/sweeps.h"
#include "support/env.h"
#include "support/stopwatch.h"
#include "support/table.h"
#include "traces/scenario_source.h"

namespace aheft::bench {

struct BenchOptions {
  Scale scale = Scale::kDefault;
  std::size_t threads = 0;
  std::uint64_t seed = 42;
  std::string csv;
  /// Overrides every spec's scenario source when non-empty.
  std::string scenario_source;
  std::string trace_path;
  /// SWF/GWA log for the "archive"/"fitted" scenario sources.
  std::string archive_path;
  /// Overrides every spec's contention policy when non-empty.
  std::string contention_policy;
  /// Enables session-level ledger backfilling on every spec.
  bool backfill = false;
  /// Enables contention-aware planning on every spec.
  bool contention_aware = false;
  /// Structured JSON results path (empty: no JSON output).
  std::string json;
};

/// Prints the shared flag reference plus the live backend registries —
/// scenario sources with their descriptions and contention policies —
/// so `--help` always reflects what is actually registered.
inline void print_help(const char* program) {
  std::cout
      << "usage: " << program << " [options]\n\n"
      << "  --scale=smoke|default|paper  sweep size (or $AHEFT_SCALE)\n"
      << "  --threads=N                  worker threads (0 = hardware)\n"
      << "  --seed=N                     master seed (default 42)\n"
      << "  --csv=path                   per-case CSV dump\n"
      << "  --json=path                  structured JSON results\n"
      << "  --scenario-source=NAME       grid environment backend\n"
      << "  --trace=path                 trace file (scenario source "
         "'trace')\n"
      << "  --archive=path               SWF/GWA log (scenario sources "
         "'archive' and 'fitted')\n"
      << "  --contention-policy=NAME     cross-workflow arbitration\n"
      << "  --backfill                   session-level ledger backfilling\n"
      << "  --contention-aware           contention-aware planning\n"
      << "  --strategy=NAME              strategy under test (benches that\n"
      << "                               take one; see the list below)\n"
      << "  --streams=a,b,c              stream-concurrency axis (stream\n"
      << "                               benches)\n"
      << "  --shards=a,b,c               parallel-simulation shard axis\n"
      << "                               (benches that sweep it; 1 = the\n"
      << "                               serial event loop)\n"
      << "  --help                       this message\n\n"
      << "strategies:\n ";
  for (const std::string& name : core::strategy_names()) {
    std::cout << ' ' << name;
  }
  std::cout << "\n\nscenario sources:\n";
  const auto& sources = traces::ScenarioSourceRegistry::instance();
  for (const std::string& name : sources.names()) {
    std::cout << "  " << name;
    for (std::size_t pad = name.size(); pad < 12; ++pad) {
      std::cout << ' ';
    }
    std::cout << sources.require(name).description() << "\n";
  }
  std::cout << "\ncontention policies:\n ";
  for (const std::string& name :
       core::ContentionPolicyRegistry::instance().names()) {
    std::cout << ' ' << name;
  }
  // Passthrough pointer, --version style: the determinism rules these
  // benches' byte-for-byte self-checks rely on are enforced statically
  // by the in-tree linter; `detlint --list-rules` documents them the
  // same way this help documents the bench axes.
  std::cout << "\n\nstatic analysis:\n"
            << "  the determinism & concurrency rules this bench's "
               "bit-identical\n"
            << "  self-checks depend on are enforced by tools/detlint "
               "(build target\n"
            << "  `detlint`); run `detlint --list-rules` for the rule "
               "table and\n"
            << "  README \"Static analysis\" for the suppression "
               "grammar.\n";
}

inline BenchOptions parse_options(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.has("help")) {
    print_help(argc > 0 ? argv[0] : "bench");
    std::exit(0);
  }
  BenchOptions options;
  options.scale = args.scale();
  options.threads =
      static_cast<std::size_t>(args.get_int("threads", 0));
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  options.csv = args.get("csv", "");
  options.scenario_source = args.get("scenario-source", "");
  options.trace_path = args.get("trace", "");
  options.archive_path = args.get("archive", "");
  options.contention_policy = args.get("contention-policy", "");
  if (!options.scenario_source.empty()) {
    // Same eager validation as --contention-policy below: an unknown
    // backend (or a missing --trace/--archive) should fail with a usage
    // message, not escape as an exception from the first case.
    try {
      std::vector<exp::CaseSpec> probe(1);
      exp::set_scenario_source(probe, options.scenario_source,
                               options.trace_path, options.archive_path);
    } catch (const std::invalid_argument& error) {
      std::cerr << "--scenario-source: " << error.what() << "\n";
      std::exit(2);
    }
  }
  options.backfill = args.has("backfill");
  options.contention_aware = args.has("contention-aware");
  options.json = args.get("json", "");
  if (!options.contention_policy.empty()) {
    // Fail at parse time with a usage message — an unknown name would
    // otherwise escape as an exception from the first session mid-run.
    try {
      (void)core::ContentionPolicyRegistry::instance().create(
          options.contention_policy);
    } catch (const std::invalid_argument& error) {
      std::cerr << "--contention-policy: " << error.what() << "\n";
      std::exit(2);
    }
  }
  return options;
}

/// Parses --<flag>=a,b,c (positive integers) into a sweep axis; returns
/// `fallback` when the flag is absent and exits with a usage message on
/// malformed input. Behind parse_streams and parse_shards.
inline std::vector<std::size_t> parse_size_axis(
    const ArgParser& args, const std::string& flag,
    std::vector<std::size_t> fallback, const char* example) {
  if (!args.has(flag)) {
    return fallback;
  }
  std::vector<std::size_t> values;
  std::stringstream in(args.get(flag, ""));
  std::string token;
  while (std::getline(in, token, ',')) {
    // All-digits only: std::stoul alone would wrap negatives to huge
    // values and silently ignore trailing junk ("3abc").
    try {
      if (token.empty() ||
          token.find_first_not_of("0123456789") != std::string::npos) {
        throw std::invalid_argument("not a positive integer");
      }
      const unsigned long value = std::stoul(token);
      if (value == 0) {
        throw std::invalid_argument("zero");
      }
      values.push_back(static_cast<std::size_t>(value));
    } catch (const std::exception&) {
      std::cerr << "bad --" << flag << " token '" << token
                << "' (want positive integers, e.g. --" << flag << "="
                << example << ")\n";
      std::exit(2);
    }
  }
  if (values.empty()) {
    std::cerr << "--" << flag << " needs at least one positive integer\n";
    std::exit(2);
  }
  return values;
}

/// Parses --streams=a,b,c, the stream-bench concurrency axis.
inline std::vector<std::size_t> parse_streams(
    const ArgParser& args, std::vector<std::size_t> fallback) {
  return parse_size_axis(args, "streams", std::move(fallback), "1,4,16");
}

/// Parses --shards=a,b,c, the parallel-simulation shard axis
/// (SessionEnvironment::shards; 1 is the serial event loop).
inline std::vector<std::size_t> parse_shards(
    const ArgParser& args, std::vector<std::size_t> fallback) {
  return parse_size_axis(args, "shards", std::move(fallback), "1,8");
}

/// Resolves --strategy=heft|aheft|dynamic through the canonical
/// core::strategy_from_string round-trip (so every bench agrees on the
/// names); exits with a usage message on an unknown value.
inline core::StrategyKind parse_strategy(const ArgParser& args,
                                         core::StrategyKind fallback) {
  const std::string text = args.get("strategy", "");
  if (text.empty()) {
    return fallback;
  }
  if (const auto kind = core::strategy_from_string(text)) {
    return *kind;
  }
  // Mirror the unknown --scenario-source / --contention-policy style:
  // the error names every value that actually parses, from the same
  // canonical list --help prints.
  std::cerr << "unknown --strategy '" << text << "' (registered strategies:";
  for (const std::string& name : core::strategy_names()) {
    std::cerr << ' ' << name;
  }
  std::cerr << ")\n";
  std::exit(2);
}

/// Structured results sink behind --json: one JSON object per bench run
/// with one row per measured configuration. Labels are the configuration
/// axes (policy, strategy, streams, ...); metrics carry full double
/// precision so the perf trajectory stays diffable across commits
/// without table-rounding noise.
class JsonReport {
 public:
  JsonReport(std::string bench, const BenchOptions& options)
      : bench_(std::move(bench)),
        scale_(to_string(options.scale)),
        seed_(options.seed) {}

  using Labels = std::vector<std::pair<std::string, std::string>>;
  using Metrics = std::vector<std::pair<std::string, double>>;

  void add_row(Labels labels, Metrics metrics) {
    rows_.push_back(Row{std::move(labels), std::move(metrics)});
  }

  /// The standard stream-summary metric set every stream bench reports.
  void add_stream_row(Labels labels,
                      const exp::StreamStrategySummary& summary) {
    add_row(std::move(labels),
            Metrics{{"mean_makespan", summary.mean_makespan},
                    {"max_makespan", summary.max_makespan},
                    {"mean_slowdown", summary.mean_slowdown},
                    {"max_slowdown", summary.max_slowdown},
                    {"mean_wait", summary.mean_wait},
                    {"max_wait", summary.max_wait},
                    {"jain_fairness", summary.jain_fairness},
                    {"throughput", summary.throughput},
                    {"span", summary.span},
                    {"adoptions", static_cast<double>(summary.adoptions)},
                    {"restarts", static_cast<double>(summary.restarts)}});
  }

  /// Writes the report to `path`; exits with a message when the file
  /// cannot be written (CI must notice a missing artifact).
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "--json: cannot write " << path << "\n";
      std::exit(2);
    }
    out << "{\n  \"bench\": " << quoted(bench_) << ",\n  \"scale\": "
        << quoted(scale_) << ",\n  \"seed\": " << seed_
        << ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << "    {\"labels\": {";
      const Row& row = rows_[i];
      for (std::size_t j = 0; j < row.labels.size(); ++j) {
        out << (j == 0 ? "" : ", ") << quoted(row.labels[j].first) << ": "
            << quoted(row.labels[j].second);
      }
      out << "}, \"metrics\": {";
      out << std::setprecision(17);
      for (std::size_t j = 0; j < row.metrics.size(); ++j) {
        out << (j == 0 ? "" : ", ") << quoted(row.metrics[j].first) << ": "
            << row.metrics[j].second;
      }
      out << "}}";
    }
    out << "\n  ]\n}\n";
    std::cout << "structured results written to " << path << "\n";
  }

  /// Writes to options.json when --json was given; no-op otherwise.
  void write_if_requested(const BenchOptions& options) const {
    if (!options.json.empty()) {
      write(options.json);
    }
  }

 private:
  struct Row {
    Labels labels;
    Metrics metrics;
  };

  static std::string quoted(const std::string& text) {
    std::string result = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        result += '\\';
      }
      result += c;
    }
    result += '"';
    return result;
  }

  std::string bench_;
  std::string scale_;
  std::uint64_t seed_;
  std::vector<Row> rows_;
};

/// Applies the shared environment overrides (--scenario-source with its
/// --trace / --archive companions) to one spec. The sweep-style benches
/// get this through run() below; the stream benches build their specs
/// one at a time and must route each through here, or the advertised
/// flag would be validated and then silently ignored.
inline exp::CaseSpec with_cli_environment(exp::CaseSpec spec,
                                          const BenchOptions& options) {
  if (!options.scenario_source.empty()) {
    std::vector<exp::CaseSpec> one;
    one.push_back(std::move(spec));
    exp::set_scenario_source(one, options.scenario_source,
                             options.trace_path, options.archive_path);
    spec = std::move(one.front());
  }
  return spec;
}

inline void print_header(const std::string& title,
                         const BenchOptions& options, std::size_t cases) {
  std::cout << "=== " << title << " ===\n"
            << "scale=" << to_string(options.scale) << " seed=" << options.seed
            << " cases=" << cases << "\n\n";
}

/// Runs the sweep with progress reporting and optional CSV dump. When
/// --scenario-source was given, it overrides every spec's environment
/// backend first (the sweep's scenario-source axis).
inline exp::SweepOutcome run(const BenchOptions& options,
                             std::vector<exp::CaseSpec> specs) {
  if (!options.scenario_source.empty()) {
    exp::set_scenario_source(specs, options.scenario_source,
                             options.trace_path, options.archive_path);
  }
  if (!options.contention_policy.empty()) {
    exp::set_contention_policy(specs, options.contention_policy);
  }
  if (options.backfill) {
    exp::set_backfill(specs, true);
  }
  if (options.contention_aware) {
    exp::set_contention_aware(specs, true);
  }
  Stopwatch watch;
  exp::SweepOutcome outcome =
      exp::run_sweep(std::move(specs), options.threads, /*progress=*/true);
  std::cout << "ran " << outcome.results.size() << " cases in "
            << format_double(watch.seconds(), 1) << "s\n\n";
  if (!options.csv.empty()) {
    exp::dump_csv(outcome, options.csv);
    std::cout << "per-case results written to " << options.csv << "\n\n";
  }
  return outcome;
}

}  // namespace aheft::bench

#endif  // AHEFT_BENCH_BENCH_UTIL_H_
