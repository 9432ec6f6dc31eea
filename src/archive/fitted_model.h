// Fitted workload model: the statistical summary of a real archive, and
// an unbounded generator reproducing its marginals.
//
// "Mining the Workload of Real Grid Computing Systems" (PAPERS.md) shows
// production grids share three traits synthetic workloads miss:
// heavy-tailed runtimes, diurnal arrival cycles, and bag-of-task bursts.
// fit_archive() estimates exactly those marginals from a parsed SWF log:
//
//   - runtime tail: log-normal AND Weibull maximum-likelihood fits, the
//     better one (by one-sample Kolmogorov–Smirnov distance) chosen;
//   - arrivals: a per-hour-of-day rate profile (phase-aligned to the
//     log's UnixStartTime when present), i.e. a non-homogeneous Poisson
//     process reproducing the diurnal cycle;
//   - bursts: geometrically-sized bags of tasks (consecutive submissions
//     by one user within a window), with the intra-bag runtime
//     correlation estimated so tasks of one bag draw similar sizes
//     (a Gaussian copula couples them to a shared bag effect).
//
// FittedJobStream then follows the codes-workload generator-method
// discipline: construction is `load`, next() is `get_next`, and the
// per-job state is O(1) — the stream is unbounded and a million-job soak
// run allocates nothing per job.
#ifndef AHEFT_ARCHIVE_FITTED_MODEL_H_
#define AHEFT_ARCHIVE_FITTED_MODEL_H_

#include <array>
#include <cstdint>
#include <vector>

#include "archive/swf_reader.h"
#include "support/rng.h"
#include "support/stats.h"

namespace aheft::archive {

/// Knobs of fit_archive.
struct FitOptions {
  /// Two consecutive submissions by the same user at most this many
  /// seconds apart belong to one bag of tasks (the mining literature's
  /// convention is on the order of two minutes).
  double bag_window = 120.0;
  /// Fit over every terminal-status job, not just completed ones.
  bool include_failed = false;
};

/// The fitted marginals of one archive. A plain value: copying it into a
/// generator freezes the model.
struct ArchiveFit {
  // Runtime marginal (seconds).
  LogNormalParams runtime_log_normal;
  WeibullParams runtime_weibull;
  bool runtime_is_log_normal = true;  ///< KS-chosen
  double runtime_ks_log_normal = 0.0;
  double runtime_ks_weibull = 0.0;

  // Diurnal arrival profile: jobs per second within each hour of day,
  // phase-aligned so generator time 0 lands at `phase_seconds` past
  // midnight of the archive's clock.
  std::array<double, 24> hourly_rate{};
  double phase_seconds = 0.0;
  double mean_rate = 0.0;  ///< jobs per second over the whole span
  double peak_rate = 0.0;  ///< max of hourly_rate

  // Bag-of-task bursts.
  double bag_size_p = 1.0;        ///< bag size ~ Geometric(p), mean 1/p
  double mean_bag_size = 1.0;
  double intra_bag_gap_mean = 1.0;  ///< mean submit gap inside a bag
  /// Empirical intra-bag gap quantiles at kGapQuantileSteps evenly spaced
  /// probabilities (endpoints inclusive) for inverse-CDF sampling. The
  /// observed gap pool is rarely a clean parametric shape — bag-window
  /// grouping mixes true burst gaps with occasional merged-bag gaps — so
  /// the generator replays the empirical marginal instead of an
  /// exponential fit. Empty when the archive has no multi-job bags; the
  /// generator then falls back to exponential(intra_bag_gap_mean).
  std::vector<double> intra_gap_quantiles;
  /// Intra-bag correlation of log runtimes in [0, 0.95] (one-way ANOVA
  /// intraclass estimate).
  double runtime_correlation = 0.0;

  /// Empirical processor-count distribution, as (cumulative probability,
  /// processors) steps for inverse-CDF sampling. At most kProcsCdfSteps
  /// entries, so the model stays O(1)-sized in the archive length.
  std::vector<std::pair<double, std::int64_t>> procs_cdf;

  // Provenance.
  std::size_t fitted_jobs = 0;
  double span_seconds = 0.0;
  double mean_runtime = 0.0;  ///< sample mean, seconds
  double mean_procs = 1.0;    ///< sample mean processor count

  static constexpr std::size_t kProcsCdfSteps = 512;
  static constexpr std::size_t kGapQuantileSteps = 257;

  /// Intra-bag gap at uniform deviate u, linearly interpolated between
  /// adjacent entries of intra_gap_quantiles (which must be non-empty).
  [[nodiscard]] double intra_gap_from_uniform(double u) const noexcept;
  /// The chosen runtime quantile through a standard-normal deviate
  /// (log-normal directly; Weibull via the Gaussian copula).
  [[nodiscard]] double runtime_from_normal(double z) const noexcept;
};

/// Fits the model from a parsed log. Throws std::invalid_argument when
/// the log has fewer than two usable jobs or no positive submit span
/// (nothing to estimate rates from).
[[nodiscard]] ArchiveFit fit_archive(const SwfLog& log,
                                     const FitOptions& options = {});

/// One generated job.
struct GeneratedJob {
  std::uint64_t index = 0;    ///< 0-based generation order
  double arrival = 0.0;       ///< seconds, strictly non-decreasing
  double runtime = 0.0;       ///< seconds, > 0
  std::int64_t procs = 1;     ///< shared by every task of a bag
  std::uint64_t bag = 0;      ///< bag id (consecutive from 0)
  std::uint32_t bag_size = 1; ///< tasks in this job's bag
};

/// Unbounded, seeded, O(1)-state job stream over a fitted model
/// (codes-workload style: the constructor is `load`, next() is
/// `get_next`; there is no end-of-stream).
class FittedJobStream {
 public:
  FittedJobStream(ArchiveFit fit, std::uint64_t seed);

  /// The next job. Same (fit, seed) always yields the same sequence.
  [[nodiscard]] GeneratedJob next();

  [[nodiscard]] const ArchiveFit& fit() const noexcept { return fit_; }

 private:
  void start_bag();

  ArchiveFit fit_;
  /// Nominal bag-head rate per hour of day, corrected for mean bag
  /// service time (see the constructor), and its maximum for thinning.
  std::array<double, 24> head_rate_{};
  double head_peak_ = 0.0;
  RngStream arrivals_;
  RngStream runtimes_;
  RngStream bags_;
  RngStream procs_;
  double now_ = 0.0;
  std::uint64_t index_ = 0;
  std::uint64_t bag_ = 0;
  std::uint32_t bag_size_ = 0;
  std::uint32_t bag_remaining_ = 0;
  double bag_effect_ = 0.0;  ///< shared standard-normal bag deviate
  std::int64_t bag_procs_ = 1;
  bool first_bag_ = true;
};

}  // namespace aheft::archive

#endif  // AHEFT_ARCHIVE_FITTED_MODEL_H_
