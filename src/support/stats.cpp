#include "support/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aheft {

void OnlineStats::add(double x) noexcept {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const noexcept {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double improvement_rate(double base_mean, double variant_mean) {
  if (base_mean == 0.0) {
    return 0.0;
  }
  return (base_mean - variant_mean) / base_mean;
}

double normal_cdf(double z) noexcept {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double LogNormalParams::cdf(double x) const noexcept {
  if (x <= 0.0) {
    return 0.0;
  }
  return normal_cdf((std::log(x) - mu) / sigma);
}

double LogNormalParams::quantile_from_normal(double z) const noexcept {
  return std::exp(mu + sigma * z);
}

double LogNormalParams::mean() const noexcept {
  return std::exp(mu + 0.5 * sigma * sigma);
}

double WeibullParams::cdf(double x) const noexcept {
  if (x <= 0.0) {
    return 0.0;
  }
  return -std::expm1(-std::pow(x / scale, shape));
}

double WeibullParams::quantile(double u) const noexcept {
  return scale * std::pow(-std::log1p(-u), 1.0 / shape);
}

namespace {

/// Logs of a sample that must be positive; shared fit precondition.
std::vector<double> positive_logs(const std::vector<double>& sample,
                                  const char* what) {
  if (sample.empty()) {
    throw std::invalid_argument(std::string(what) +
                                " needs a non-empty sample");
  }
  std::vector<double> logs;
  logs.reserve(sample.size());
  for (const double x : sample) {
    if (!(x > 0.0) || std::isinf(x)) {
      throw std::invalid_argument(std::string(what) +
                                  " needs finite values > 0");
    }
    logs.push_back(std::log(x));
  }
  return logs;
}

}  // namespace

LogNormalParams fit_log_normal(const std::vector<double>& sample) {
  const std::vector<double> logs = positive_logs(sample, "fit_log_normal");
  const auto n = static_cast<double>(logs.size());
  double mu = 0.0;
  for (const double l : logs) {
    mu += l;
  }
  mu /= n;
  double ss = 0.0;
  for (const double l : logs) {
    ss += (l - mu) * (l - mu);
  }
  return LogNormalParams{mu, std::sqrt(ss / n)};
}

WeibullParams fit_weibull(const std::vector<double>& sample) {
  const std::vector<double> logs = positive_logs(sample, "fit_weibull");
  const auto n = static_cast<double>(logs.size());
  double log_mean = 0.0;
  double log_var = 0.0;
  for (const double l : logs) {
    log_mean += l;
  }
  log_mean /= n;
  for (const double l : logs) {
    log_var += (l - log_mean) * (l - log_mean);
  }
  log_var /= n;

  // MLE shape k solves  sum(x^k ln x)/sum(x^k) - 1/k = mean(ln x).
  // Method-of-moments start: for Weibull, sd(ln X) = (pi/sqrt(6))/k.
  constexpr double kMinShape = 1e-2;
  constexpr double kMaxShape = 1e3;  // all-equal samples push k here
  double k = log_var > 0.0
                 ? std::clamp(1.2825498301618641 / std::sqrt(log_var),
                              kMinShape, kMaxShape)
                 : kMaxShape;
  for (int iter = 0; iter < 100; ++iter) {
    // Work with x^k = exp(k ln x) shifted by the max log to avoid
    // overflow on heavy-tailed samples.
    const double shift =
        *std::max_element(logs.begin(), logs.end());
    double s0 = 0.0;  // sum x^k
    double s1 = 0.0;  // sum x^k ln x
    double s2 = 0.0;  // sum x^k (ln x)^2
    for (const double l : logs) {
      const double w = std::exp(k * (l - shift));
      s0 += w;
      s1 += w * l;
      s2 += w * l * l;
    }
    const double g = s1 / s0 - 1.0 / k - log_mean;
    const double dg = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k);
    if (dg <= 0.0) {
      break;
    }
    const double next = std::clamp(k - g / dg, 0.5 * k, 2.0 * k);
    const double step = std::abs(next - k);
    k = std::clamp(next, kMinShape, kMaxShape);
    if (step < 1e-10 * k) {
      break;
    }
  }

  // Scale MLE given the shape: lambda = (mean of x^k)^(1/k).
  const double shift = *std::max_element(logs.begin(), logs.end());
  double s0 = 0.0;
  for (const double l : logs) {
    s0 += std::exp(k * (l - shift));
  }
  const double scale = std::exp(shift + std::log(s0 / n) / k);
  return WeibullParams{k, scale};
}

double empirical_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    throw std::invalid_argument(
        "empirical_quantile needs a non-empty sample");
  }
  if (!std::is_sorted(sorted.begin(), sorted.end())) {
    throw std::invalid_argument(
        "empirical_quantile needs an ascending-sorted sample");
  }
  q = std::clamp(q, 0.0, 1.0);
  const double position = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(position);
  if (lo + 1 >= sorted.size()) {
    return sorted.back();
  }
  const double frac = position - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

double ks_distance(std::vector<double> sample,
                   const std::function<double(double)>& cdf) {
  if (sample.empty()) {
    throw std::invalid_argument("ks_distance needs a non-empty sample");
  }
  std::sort(sample.begin(), sample.end());
  const auto n = static_cast<double>(sample.size());
  double d = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const double f = cdf(sample[i]);
    d = std::max(d, std::abs(static_cast<double>(i + 1) / n - f));
    d = std::max(d, std::abs(f - static_cast<double>(i) / n));
  }
  return d;
}

double ks_distance(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("ks_distance needs non-empty samples");
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const auto na = static_cast<double>(a.size());
  const auto nb = static_cast<double>(b.size());
  double d = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    // Step past every sample equal to the smaller head before comparing
    // the empirical CDFs, so ties advance both sides together.
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) {
      ++i;
    }
    while (j < b.size() && b[j] <= x) {
      ++j;
    }
    d = std::max(d, std::abs(static_cast<double>(i) / na -
                             static_cast<double>(j) / nb));
  }
  return d;
}

double jain_fairness_index(const std::vector<double>& values) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : values) {
    sum += x;
    sum_sq += x * x;
  }
  if (values.empty() || sum_sq == 0.0) {
    return 1.0;
  }
  return (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

}  // namespace aheft
