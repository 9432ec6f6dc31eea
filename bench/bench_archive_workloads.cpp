// EXP-A1 — real-workload archives: SWF import fidelity and the fitted
// generator's statistical faithfulness.
//
// Three stages, each with a hard self-check (nonzero exit on failure):
//
//   reference   synthesizes an archive from KNOWN distributions —
//               log-normal runtimes, diurnal non-homogeneous Poisson
//               arrivals, geometric bags — writes it through write_swf,
//               reads it back (round-trip proof), fits it with
//               fit_archive, and generates a fresh stream from the fit.
//               The generated stream must match the source archive's
//               runtime and interarrival marginals within a two-sample
//               Kolmogorov–Smirnov bound.
//   replay      compiles the checked-in sample_clean.swf fixture through
//               the `archive` ScenarioSource backend and verifies the
//               mapped scenario (pool from MaxNodes, submit-ordered
//               arrivals, bounded load multipliers).
//   soak        drives the codes-workload-style load/get_next generator
//               for >= 100k jobs (1M at default scale) with O(1) state:
//               arrivals must stay monotone, runtimes positive, and a
//               second stream at the same seed bit-identical.
//
// Extra knobs: --smoke, --json=path (per-stage fidelity metrics at full
// precision, uploaded by CI into the BENCH_stream.json artifact), and
// --archive-fit-report: skip the stages, fit the SWF/GWA log named by
// --archive (default: the checked-in sample_clean.swf fixture) and dump
// the complete ArchiveFit as JSON — to the --json path when given, else
// to stdout — so fitted models can be inspected and diffed offline.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <numbers>
#include <string>
#include <vector>

#include "archive/fitted_model.h"
#include "archive/swf_reader.h"
#include "bench_util.h"
#include "support/rng.h"
#include "support/stats.h"
#include "traces/scenario_source.h"

using namespace aheft;

namespace {

// Two-sample KS bounds for the fitted stream vs its source archive.
// With tens of thousands of samples the same-distribution critical value
// at alpha = 0.05 is ~0.014; the slack covers fitting bias (the
// generator draws from the *fitted* marginal, not the empirical one).
// Observed values sit near 0.01 across seeds; the bounds would catch a
// reversion of either the empirical intra-bag gap table or the
// service-time renewal correction on bag-head rates (each alone costs
// ~0.07 of interarrival KS).
constexpr double kRuntimeKsBound = 0.05;
constexpr double kInterarrivalKsBound = 0.05;

/// Ground truth of the synthesized reference archive.
struct Reference {
  double mu = 4.5;       ///< log-runtime mean
  double sigma = 1.0;    ///< log-runtime spread
  double bag_p = 0.4;    ///< geometric bag-size parameter
  double intra_gap = 20.0;
  double base_rate = 0.02;  ///< bag heads per second at the quietest hour
};

/// Synthesizes an SWF log with known marginals: diurnal Poisson bag
/// arrivals, geometric bag sizes, iid log-normal runtimes, a small
/// processor-count support.
archive::SwfLog synthesize(const Reference& ref, std::size_t jobs,
                           std::uint64_t seed) {
  archive::SwfLog log;
  log.header.fields = {{"Version", "2.2"},
                       {"MaxNodes", "16"},
                       {"MaxProcs", "64"},
                       {"UnixStartTime", "1167609600"}};
  RngStream arrivals = RngStream(seed).child("ref-arrivals");
  RngStream runtimes = RngStream(seed).child("ref-runtimes");
  RngStream bags = RngStream(seed).child("ref-bags");
  const std::vector<std::int64_t> procs_support{1, 1, 2, 2, 4, 8};

  // Hourly bag-head rates: a day-shaped profile peaking at 15:00.
  std::array<double, 24> rate{};
  double peak = 0.0;
  for (std::size_t h = 0; h < 24; ++h) {
    rate[h] = ref.base_rate *
              (1.0 + 0.8 * std::sin((static_cast<double>(h) - 9.0) *
                                    std::numbers::pi / 12.0));
    peak = std::max(peak, rate[h]);
  }

  double now = 0.0;
  std::int64_t id = 0;
  while (log.jobs.size() < jobs) {
    // Thinned non-homogeneous Poisson bag head.
    for (;;) {
      now += arrivals.exponential(1.0 / peak);
      const auto hour = static_cast<std::size_t>(
                            std::fmod(now, 86400.0) / 3600.0) %
                        24;
      if (arrivals.uniform01() * peak <= rate[hour]) {
        break;
      }
    }
    const std::size_t bag_size = bags.geometric(ref.bag_p);
    const std::int64_t user = bags.uniform_int(1, 12);
    const std::int64_t procs = procs_support[bags.index(
        procs_support.size())];
    double submit = now;
    for (std::size_t i = 0; i < bag_size && log.jobs.size() < jobs; ++i) {
      if (i > 0) {
        submit += arrivals.exponential(ref.intra_gap);
      }
      archive::SwfJob job;
      job.id = ++id;
      job.submit = submit;
      job.wait = runtimes.exponential(30.0);
      job.runtime = runtimes.log_normal(ref.mu, ref.sigma);
      job.procs = procs;
      job.requested_procs = procs;
      job.requested_time = job.runtime * 2.0;
      job.status = 1;
      job.user = user;
      job.executable = user;
      log.jobs.push_back(job);
    }
    now = submit;
  }
  return log;
}

std::vector<double> gaps_of(const std::vector<double>& times) {
  std::vector<double> gaps;
  gaps.reserve(times.size());
  for (std::size_t i = 1; i < times.size(); ++i) {
    gaps.push_back(times[i] - times[i - 1]);
  }
  return gaps;
}

bool check(bool ok, const std::string& what) {
  std::cout << "  " << (ok ? "PASS" : "FAIL") << "  " << what << "\n";
  return ok;
}

void append_array(std::ostream& out, const char* key,
                  const std::vector<double>& values) {
  out << "  \"" << key << "\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ", ") << values[i];
  }
  out << "],\n";
}

/// --archive-fit-report: the complete fitted model of one log as a JSON
/// object (full double precision, arrays included), for offline
/// inspection and cross-commit diffing of fits.
void write_fit_report(std::ostream& out, const std::string& path,
                      const archive::ArchiveFit& fit) {
  out << std::setprecision(17);
  out << "{\n  \"archive\": \"" << path << "\",\n"
      << "  \"runtime_family\": \""
      << (fit.runtime_is_log_normal ? "log-normal" : "weibull") << "\",\n"
      << "  \"runtime_log_normal\": {\"mu\": " << fit.runtime_log_normal.mu
      << ", \"sigma\": " << fit.runtime_log_normal.sigma << "},\n"
      << "  \"runtime_weibull\": {\"shape\": " << fit.runtime_weibull.shape
      << ", \"scale\": " << fit.runtime_weibull.scale << "},\n"
      << "  \"runtime_ks\": {\"log_normal\": " << fit.runtime_ks_log_normal
      << ", \"weibull\": " << fit.runtime_ks_weibull << "},\n";
  append_array(out, "hourly_rate",
               {fit.hourly_rate.begin(), fit.hourly_rate.end()});
  out << "  \"phase_seconds\": " << fit.phase_seconds << ",\n"
      << "  \"mean_rate\": " << fit.mean_rate << ",\n"
      << "  \"peak_rate\": " << fit.peak_rate << ",\n"
      << "  \"bag_size_p\": " << fit.bag_size_p << ",\n"
      << "  \"mean_bag_size\": " << fit.mean_bag_size << ",\n"
      << "  \"intra_bag_gap_mean\": " << fit.intra_bag_gap_mean << ",\n";
  append_array(out, "intra_gap_quantiles", fit.intra_gap_quantiles);
  out << "  \"runtime_correlation\": " << fit.runtime_correlation << ",\n"
      << "  \"procs_cdf\": [";
  for (std::size_t i = 0; i < fit.procs_cdf.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "[" << fit.procs_cdf[i].first << ", "
        << fit.procs_cdf[i].second << "]";
  }
  out << "],\n"
      << "  \"fitted_jobs\": " << fit.fitted_jobs << ",\n"
      << "  \"span_seconds\": " << fit.span_seconds << ",\n"
      << "  \"mean_runtime\": " << fit.mean_runtime << ",\n"
      << "  \"mean_procs\": " << fit.mean_procs << "\n}\n";
}

int run_fit_report(const bench::BenchOptions& options) {
  const std::string path =
      options.archive_path.empty()
          ? std::string(AHEFT_TEST_DATA_DIR) + "/sample_clean.swf"
          : options.archive_path;
  archive::ArchiveFit fit;
  try {
    fit = archive::fit_archive(archive::read_swf_file(path));
  } catch (const std::exception& error) {
    std::cerr << "--archive-fit-report: cannot fit " << path << ": "
              << error.what() << "\n";
    return 2;
  }
  if (options.json.empty()) {
    write_fit_report(std::cout, path, fit);
    return 0;
  }
  std::ofstream out(options.json);
  if (!out) {
    std::cerr << "--json: cannot write " << options.json << "\n";
    return 2;
  }
  write_fit_report(out, path, fit);
  std::cout << "fit report for " << path << " (" << fit.fitted_jobs
            << " jobs) written to " << options.json << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args = bench::arguments(
      argc, argv, {"smoke", "archive", "archive-fit-report", "json"});
  bench::BenchOptions options = bench::parse_options(args);
  if (args.has("smoke")) {
    options.scale = Scale::kSmoke;
  }
  if (args.has("archive-fit-report")) {
    return run_fit_report(options);
  }
  const bool smoke = options.scale == Scale::kSmoke;
  const std::size_t reference_jobs = smoke ? 20000 : 50000;
  const std::size_t soak_jobs = smoke ? 100000 : 1000000;

  bench::print_header("Archive workloads: import fidelity and fitted-stream "
                      "faithfulness",
                      options, 3);
  bench::JsonReport report("bench_archive_workloads", options);
  bool ok = true;

  // ---------------------------------------------------------- reference --
  std::cout << "reference archive (" << reference_jobs << " jobs):\n";
  const Reference ref;
  const archive::SwfLog source =
      synthesize(ref, reference_jobs, options.seed);
  // Round-trip proof: the writer emits exactly what the reader parses.
  const archive::SwfLog reread =
      archive::read_swf_string(archive::write_swf_string(source));
  ok &= check(reread.jobs == source.jobs &&
                  reread.header.fields == source.header.fields,
              "write_swf / read_swf round-trip is identical");

  const archive::ArchiveFit fit = archive::fit_archive(reread);
  ok &= check(fit.runtime_is_log_normal,
              "KS model selection picks the true (log-normal) family");
  ok &= check(std::abs(fit.runtime_log_normal.mu - ref.mu) < 0.05 &&
                  std::abs(fit.runtime_log_normal.sigma - ref.sigma) < 0.05,
              "MLE recovers mu/sigma within 0.05");

  std::vector<double> source_runtimes;
  std::vector<double> source_arrivals;
  source_runtimes.reserve(source.jobs.size());
  source_arrivals.reserve(source.jobs.size());
  for (const archive::SwfJob& job : source.jobs) {
    source_runtimes.push_back(job.runtime);
    source_arrivals.push_back(job.submit);
  }
  archive::FittedJobStream generated(fit, options.seed + 1);
  std::vector<double> gen_runtimes;
  std::vector<double> gen_arrivals;
  gen_runtimes.reserve(source.jobs.size());
  gen_arrivals.reserve(source.jobs.size());
  for (std::size_t i = 0; i < source.jobs.size(); ++i) {
    const archive::GeneratedJob job = generated.next();
    gen_runtimes.push_back(job.runtime);
    gen_arrivals.push_back(job.arrival);
  }
  const double ks_runtime = ks_distance(source_runtimes, gen_runtimes);
  const double ks_gap =
      ks_distance(gaps_of(source_arrivals), gaps_of(gen_arrivals));
  ok &= check(ks_runtime <= kRuntimeKsBound,
              "runtime marginal KS " + format_double(ks_runtime, 4) +
                  " <= " + format_double(kRuntimeKsBound, 2));
  ok &= check(ks_gap <= kInterarrivalKsBound,
              "interarrival marginal KS " + format_double(ks_gap, 4) +
                  " <= " + format_double(kInterarrivalKsBound, 2));
  report.add_row({{"stage", "reference"}},
                 {{"jobs", static_cast<double>(reference_jobs)},
                  {"ks_runtime", ks_runtime},
                  {"ks_interarrival", ks_gap},
                  {"fitted_mu", fit.runtime_log_normal.mu},
                  {"fitted_sigma", fit.runtime_log_normal.sigma},
                  {"fitted_mean_bag", fit.mean_bag_size},
                  {"fitted_correlation", fit.runtime_correlation}});

  // ------------------------------------------------------------- replay --
  std::cout << "\nfixture replay (sample_clean.swf):\n";
  traces::ScenarioRequest request;
  request.archive.path = std::string(AHEFT_TEST_DATA_DIR) +
                         "/sample_clean.swf";
  request.horizon = 4000.0;
  const traces::CompiledScenario scenario =
      traces::build_scenario("archive", request);
  bool monotone = true;
  for (std::size_t i = 1; i < scenario.job_arrivals.size(); ++i) {
    monotone &= scenario.job_arrivals[i].arrival >=
                scenario.job_arrivals[i - 1].arrival;
  }
  bool load_bounded = true;
  for (const traces::LoadSegment& segment : scenario.load.segments()) {
    load_bounded &= segment.multiplier > 1.0 && segment.multiplier <= 2.0;
  }
  ok &= check(scenario.pool.universe_size() == 8,
              "pool sized from the MaxNodes header (8 machines)");
  ok &= check(scenario.job_arrivals.size() == 38 && monotone,
              "38 usable jobs become submit-ordered arrivals");
  ok &= check(!scenario.load.segments().empty() && load_bounded,
              "utilization load segments stay within (1, 1+amplitude]");
  report.add_row(
      {{"stage", "replay"}},
      {{"machines", static_cast<double>(scenario.pool.universe_size())},
       {"arrivals", static_cast<double>(scenario.job_arrivals.size())},
       {"load_segments",
        static_cast<double>(scenario.load.segments().size())}});

  // --------------------------------------------------------------- soak --
  std::cout << "\nfitted-stream soak (" << soak_jobs << " jobs):\n";
  archive::FittedJobStream soak(fit, options.seed);
  archive::FittedJobStream twin(fit, options.seed);
  Stopwatch watch;
  bool soak_ok = true;
  bool deterministic = true;
  double last_arrival = 0.0;
  std::uint64_t bags_seen = 0;
  std::uint64_t last_bag = ~0ull;
  for (std::size_t i = 0; i < soak_jobs; ++i) {
    const archive::GeneratedJob job = soak.next();
    const archive::GeneratedJob copy = twin.next();
    soak_ok &= job.arrival >= last_arrival && job.runtime > 0.0 &&
               job.procs > 0;
    deterministic &= job.arrival == copy.arrival &&
                     job.runtime == copy.runtime && job.procs == copy.procs;
    last_arrival = job.arrival;
    if (job.bag != last_bag) {
      last_bag = job.bag;
      ++bags_seen;
    }
  }
  const double seconds = watch.seconds();
  ok &= check(soak_ok, "arrivals monotone, runtimes/procs positive across "
                       "the whole soak");
  ok &= check(deterministic,
              "a twin stream at the same seed is bit-identical");
  std::cout << "  " << soak_jobs << " jobs in " << format_double(seconds, 2)
            << "s (" << format_double(
                            static_cast<double>(soak_jobs) /
                                std::max(seconds, 1e-9) / 1e6,
                            2)
            << "M jobs/s), " << bags_seen << " bags, span "
            << format_double(last_arrival / 86400.0, 1) << " simulated days\n";
  // The wall-clock rate stays on stdout: every JSON row is a function of
  // the seed alone, so two runs' files compare byte-identical.
  report.add_row({{"stage", "soak"}},
                 {{"jobs", static_cast<double>(soak_jobs)},
                  {"bags", static_cast<double>(bags_seen)},
                  {"span_days", last_arrival / 86400.0}});

  report.write_if_requested(options);
  std::cout << "\narchive-workloads self-check: " << (ok ? "PASS" : "FAIL")
            << "\n";
  return ok ? 0 : 1;
}
