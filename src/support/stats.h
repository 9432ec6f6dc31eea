// Streaming statistics used by the experiment harness, plus the
// distribution-fitting primitives the workload-archive subsystem uses to
// estimate heavy-tailed runtime and interarrival marginals from real logs
// (log-normal / Weibull maximum likelihood, empirical quantiles, and the
// Kolmogorov–Smirnov distance that scores the fits).
#ifndef AHEFT_SUPPORT_STATS_H_
#define AHEFT_SUPPORT_STATS_H_

#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

namespace aheft {

/// Welford online accumulator: numerically stable mean/variance plus
/// min/max, mergeable so per-thread partials can be combined.
class OnlineStats {
 public:
  void add(double x) noexcept;
  void merge(const OnlineStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// The paper reports "improvement rate" as the relative reduction of the
/// *average* makespan: (avg(base) - avg(variant)) / avg(base).
[[nodiscard]] double improvement_rate(double base_mean, double variant_mean);

/// Jain's fairness index over non-negative allocations:
/// (sum x)^2 / (n * sum x^2), in (0, 1] with 1 meaning perfectly equal.
/// Degenerate inputs (empty, or all zeros) count as perfectly fair.
[[nodiscard]] double jain_fairness_index(const std::vector<double>& values);

// -------------------------------------------------- distribution fitting --

/// Standard normal CDF Phi(z).
[[nodiscard]] double normal_cdf(double z) noexcept;

/// Log-normal distribution: ln X ~ N(mu, sigma^2).
struct LogNormalParams {
  double mu = 0.0;
  double sigma = 1.0;

  [[nodiscard]] double cdf(double x) const noexcept;
  /// Quantile expressed through the standard-normal deviate z = probit(u):
  /// exp(mu + sigma * z). Lets Gaussian-copula samplers draw correlated
  /// values without a probit implementation.
  [[nodiscard]] double quantile_from_normal(double z) const noexcept;
  [[nodiscard]] double mean() const noexcept;

  bool operator==(const LogNormalParams&) const = default;
};

/// Weibull distribution with CDF 1 - exp(-(x / scale)^shape).
struct WeibullParams {
  double shape = 1.0;
  double scale = 1.0;

  [[nodiscard]] double cdf(double x) const noexcept;
  /// Inverse CDF: scale * (-ln(1 - u))^(1/shape), u in [0, 1).
  [[nodiscard]] double quantile(double u) const noexcept;

  bool operator==(const WeibullParams&) const = default;
};

/// Maximum-likelihood log-normal fit (mu = mean of logs, sigma = the MLE
/// standard deviation of logs, i.e. the 1/n form). Throws
/// std::invalid_argument on an empty sample or any value <= 0.
[[nodiscard]] LogNormalParams fit_log_normal(
    const std::vector<double>& sample);

/// Maximum-likelihood Weibull fit; the shape equation is solved by damped
/// Newton iteration from a method-of-moments start. Throws
/// std::invalid_argument on an empty sample or any value <= 0; a
/// degenerate all-equal sample yields a large shape (a near-point mass).
[[nodiscard]] WeibullParams fit_weibull(const std::vector<double>& sample);

/// Linear-interpolation empirical quantile of an ascending-sorted sample
/// (the R type-7 convention). q is clamped to [0, 1]. Throws
/// std::invalid_argument when the sample is empty or unsorted.
[[nodiscard]] double empirical_quantile(const std::vector<double>& sorted,
                                        double q);

/// One-sample Kolmogorov–Smirnov distance between a sample and a
/// continuous CDF: sup_x |F_n(x) - F(x)|. The sample need not be sorted.
/// Throws std::invalid_argument on an empty sample.
[[nodiscard]] double ks_distance(std::vector<double> sample,
                                 const std::function<double(double)>& cdf);

/// Two-sample Kolmogorov–Smirnov distance between the empirical CDFs.
/// Throws std::invalid_argument when either sample is empty.
[[nodiscard]] double ks_distance(std::vector<double> a,
                                 std::vector<double> b);

}  // namespace aheft

#endif  // AHEFT_SUPPORT_STATS_H_
