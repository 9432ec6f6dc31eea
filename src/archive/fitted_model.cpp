#include "archive/fitted_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/assert.h"

namespace aheft::archive {

namespace {

constexpr double kSecondsPerHour = 3600.0;
constexpr double kSecondsPerDay = 86400.0;

/// Hour of day (0..23) of instant t when the clock reads `phase` seconds
/// past midnight at t = 0.
std::size_t hour_of_day(double phase, double t) noexcept {
  double day_seconds = std::fmod(phase + t, kSecondsPerDay);
  if (day_seconds < 0.0) {
    day_seconds += kSecondsPerDay;
  }
  const auto hour = static_cast<std::size_t>(day_seconds / kSecondsPerHour);
  return hour >= 24 ? 23 : hour;
}

}  // namespace

double ArchiveFit::runtime_from_normal(double z) const noexcept {
  if (runtime_is_log_normal) {
    return runtime_log_normal.quantile_from_normal(z);
  }
  // Gaussian copula: the deviate maps through Phi to a uniform, then
  // through the Weibull quantile; clamping keeps the quantile finite.
  double u = normal_cdf(z);
  u = std::min(std::max(u, 1e-12), 1.0 - 1e-12);
  return runtime_weibull.quantile(u);
}

double ArchiveFit::intra_gap_from_uniform(double u) const noexcept {
  u = std::min(std::max(u, 0.0), 1.0);
  const double pos = u * static_cast<double>(intra_gap_quantiles.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= intra_gap_quantiles.size()) {
    return intra_gap_quantiles.back();
  }
  const double frac = pos - static_cast<double>(lo);
  return intra_gap_quantiles[lo] +
         frac * (intra_gap_quantiles[lo + 1] - intra_gap_quantiles[lo]);
}

ArchiveFit fit_archive(const SwfLog& log, const FitOptions& options) {
  if (!(options.bag_window >= 0.0)) {
    throw std::invalid_argument("fit_archive bag_window must be non-negative");
  }
  const std::vector<SwfJob> jobs = usable_jobs(log, options.include_failed);
  if (jobs.size() < 2) {
    throw std::invalid_argument(
        "archive has fewer than two usable jobs; nothing to fit");
  }
  const double t0 = jobs.front().submit;
  const double span = jobs.back().submit - t0;
  if (!(span > 0.0)) {
    throw std::invalid_argument(
        "archive submit span is zero; arrival rates cannot be estimated");
  }

  ArchiveFit fit;
  fit.fitted_jobs = jobs.size();
  fit.span_seconds = span;

  // --- Runtime marginal: fit both candidate tails, keep the KS winner.
  std::vector<double> runtimes;
  runtimes.reserve(jobs.size());
  double runtime_sum = 0.0;
  double procs_sum = 0.0;
  for (const SwfJob& job : jobs) {
    runtimes.push_back(job.runtime);
    runtime_sum += job.runtime;
    procs_sum += static_cast<double>(job.procs);
  }
  fit.mean_runtime = runtime_sum / static_cast<double>(jobs.size());
  fit.mean_procs = procs_sum / static_cast<double>(jobs.size());
  fit.runtime_log_normal = fit_log_normal(runtimes);
  fit.runtime_weibull = fit_weibull(runtimes);
  fit.runtime_ks_log_normal = ks_distance(
      runtimes, [&fit](double x) { return fit.runtime_log_normal.cdf(x); });
  fit.runtime_ks_weibull = ks_distance(
      runtimes, [&fit](double x) { return fit.runtime_weibull.cdf(x); });
  fit.runtime_is_log_normal =
      fit.runtime_ks_log_normal <= fit.runtime_ks_weibull;

  // --- Diurnal arrival profile. Rates are per-hour-of-day counts divided
  // by the seconds each hour-of-day was observed, so partial final days
  // do not bias the profile. The phase aligns hour 0 with the archive's
  // real midnight when UnixStartTime is recorded.
  const auto unix_start = static_cast<double>(log.header.unix_start_time());
  fit.phase_seconds = std::fmod(unix_start + t0, kSecondsPerDay);
  std::array<double, 24> counts{};
  for (const SwfJob& job : jobs) {
    counts[hour_of_day(fit.phase_seconds, job.submit - t0)] += 1.0;
  }
  std::array<double, 24> observed{};
  double t = 0.0;
  while (t < span) {
    const double day_seconds = std::fmod(fit.phase_seconds + t, kSecondsPerDay);
    const double to_boundary =
        kSecondsPerHour - std::fmod(day_seconds, kSecondsPerHour);
    const double step = std::min(to_boundary, span - t);
    if (!(t + step > t)) {
      break;  // step underflowed against a huge span
    }
    observed[hour_of_day(fit.phase_seconds, t)] += step;
    t += step;
  }
  fit.mean_rate = static_cast<double>(jobs.size()) / span;
  for (std::size_t h = 0; h < 24; ++h) {
    fit.hourly_rate[h] = observed[h] > 0.0 ? counts[h] / observed[h] : 0.0;
    fit.peak_rate = std::max(fit.peak_rate, fit.hourly_rate[h]);
  }

  // --- Bag-of-task bursts: consecutive submissions by the same (known)
  // user within the window form one bag. Per-bag moments of log runtime
  // feed the one-way ANOVA intraclass-correlation estimate.
  struct BagStat {
    double n = 0.0;
    double sum = 0.0;    ///< sum of log runtimes
    double sumsq = 0.0;  ///< sum of squared log runtimes
  };
  std::vector<BagStat> bags;
  std::vector<double> intra_gaps;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SwfJob& job = jobs[i];
    const bool continues_bag =
        i > 0 && job.user >= 0 && job.user == jobs[i - 1].user &&
        job.submit - jobs[i - 1].submit <= options.bag_window;
    if (!continues_bag) {
      bags.emplace_back();
    } else {
      intra_gaps.push_back(job.submit - jobs[i - 1].submit);
    }
    const double log_runtime = std::log(job.runtime);
    BagStat& bag = bags.back();
    bag.n += 1.0;
    bag.sum += log_runtime;
    bag.sumsq += log_runtime * log_runtime;
  }
  const auto total_jobs = static_cast<double>(jobs.size());
  const auto bag_count = static_cast<double>(bags.size());
  fit.mean_bag_size = total_jobs / bag_count;
  fit.bag_size_p = std::clamp(1.0 / fit.mean_bag_size, 1e-3, 1.0);
  if (intra_gaps.empty()) {
    fit.intra_bag_gap_mean = 1.0;
  } else {
    double gap_sum = 0.0;
    for (const double gap : intra_gaps) {
      gap_sum += gap;
    }
    // Same-second submissions are common in SWF; keep the mean positive
    // so the generator's exponential fallback stays well-defined.
    fit.intra_bag_gap_mean =
        std::max(gap_sum / static_cast<double>(intra_gaps.size()), 1e-3);
    std::sort(intra_gaps.begin(), intra_gaps.end());
    fit.intra_gap_quantiles.reserve(ArchiveFit::kGapQuantileSteps);
    for (std::size_t k = 0; k < ArchiveFit::kGapQuantileSteps; ++k) {
      const double q = static_cast<double>(k) /
                       static_cast<double>(ArchiveFit::kGapQuantileSteps - 1);
      fit.intra_gap_quantiles.push_back(empirical_quantile(intra_gaps, q));
    }
  }
  if (bags.size() >= 2 && total_jobs > bag_count) {
    double grand_sum = 0.0;
    double ssw = 0.0;    // within-bag sum of squares
    double sum_n_sq = 0.0;
    for (const BagStat& bag : bags) {
      grand_sum += bag.sum;
      ssw += bag.sumsq - bag.sum * bag.sum / bag.n;
      sum_n_sq += bag.n * bag.n;
    }
    const double grand_mean = grand_sum / total_jobs;
    double ssb = 0.0;  // between-bag sum of squares
    for (const BagStat& bag : bags) {
      const double mean = bag.sum / bag.n;
      ssb += bag.n * (mean - grand_mean) * (mean - grand_mean);
    }
    const double msb = ssb / (bag_count - 1.0);
    const double msw = ssw / (total_jobs - bag_count);
    // ANOVA's adjusted mean group size for unbalanced designs.
    const double n0 = (total_jobs - sum_n_sq / total_jobs) / (bag_count - 1.0);
    const double denom = msb + (n0 - 1.0) * msw;
    if (denom > 0.0) {
      fit.runtime_correlation = std::clamp((msb - msw) / denom, 0.0, 0.95);
    }
  }

  // --- Processor counts: compressed empirical inverse CDF.
  std::vector<std::int64_t> procs;
  procs.reserve(jobs.size());
  for (const SwfJob& job : jobs) {
    procs.push_back(job.procs);
  }
  std::sort(procs.begin(), procs.end());
  const std::size_t n = procs.size();
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i;
    while (j < n && procs[j] == procs[i]) {
      ++j;
    }
    fit.procs_cdf.emplace_back(static_cast<double>(j) / static_cast<double>(n),
                               procs[i]);
    i = j;
  }
  if (fit.procs_cdf.size() > ArchiveFit::kProcsCdfSteps) {
    std::vector<std::pair<double, std::int64_t>> compressed;
    compressed.reserve(ArchiveFit::kProcsCdfSteps);
    for (std::size_t i = 1; i <= ArchiveFit::kProcsCdfSteps; ++i) {
      const double q = static_cast<double>(i) /
                       static_cast<double>(ArchiveFit::kProcsCdfSteps);
      const auto idx = std::min(
          n - 1, static_cast<std::size_t>(
                     std::ceil(q * static_cast<double>(n))) -
                     1);
      if (!compressed.empty() && compressed.back().second == procs[idx]) {
        compressed.back().first = q;
      } else {
        compressed.emplace_back(q, procs[idx]);
      }
    }
    fit.procs_cdf = std::move(compressed);
  }
  fit.procs_cdf.back().first = 1.0;

  return fit;
}

FittedJobStream::FittedJobStream(ArchiveFit fit, std::uint64_t seed)
    : fit_(std::move(fit)),
      arrivals_(RngStream(seed).child("archive-arrivals")),
      runtimes_(RngStream(seed).child("archive-runtimes")),
      bags_(RngStream(seed).child("archive-bags")),
      procs_(RngStream(seed).child("archive-procs")) {
  AHEFT_REQUIRE(fit_.peak_rate > 0.0,
                "fitted model must carry a positive peak arrival rate");
  AHEFT_REQUIRE(fit_.mean_bag_size >= 1.0,
                "fitted model mean bag size must be at least one");
  AHEFT_REQUIRE(!fit_.procs_cdf.empty(),
                "fitted model must carry a processor-count distribution");
  // The fitted hourly_rate is the *realized* job throughput, but the
  // stream draws the next bag head from the END of the previous bag, so
  // each bag cycle = nominal head gap + bag service time. Inverting that
  // renewal relation (nominal gap = mean_bag_size / rate - service) keeps
  // the realized throughput — and thus the interarrival marginal — equal
  // to the archive's instead of stretched by one service time per bag.
  const double service =
      (fit_.mean_bag_size - 1.0) * fit_.intra_bag_gap_mean;
  for (std::size_t h = 0; h < 24; ++h) {
    if (fit_.hourly_rate[h] > 0.0) {
      const double cycle = fit_.mean_bag_size / fit_.hourly_rate[h];
      head_rate_[h] = 1.0 / std::max(cycle - service, 1e-3);
    }
    head_peak_ = std::max(head_peak_, head_rate_[h]);
  }
}

void FittedJobStream::start_bag() {
  if (index_ > 0) {
    ++bag_;
  }
  // Bag heads form a non-homogeneous Poisson process at the
  // service-corrected nominal head rate (see the constructor), sampled
  // by thinning against the diurnal peak: propose at the peak rate,
  // accept with probability rate(now) / peak. Rejections advance time,
  // so quiet hours stay quiet.
  for (;;) {
    now_ += arrivals_.exponential(1.0 / head_peak_);
    const double rate = head_rate_[hour_of_day(fit_.phase_seconds, now_)];
    if (arrivals_.uniform01() * head_peak_ <= rate) {
      break;
    }
  }
  bag_size_ = static_cast<std::uint32_t>(
      std::min<std::size_t>(bags_.geometric(fit_.bag_size_p), 1u << 20));
  bag_remaining_ = bag_size_;
  bag_effect_ = bags_.normal(0.0, 1.0);
  // Tasks of one bag are homogeneous: a single processor-count draw.
  const double u = procs_.uniform01();
  auto it = std::lower_bound(
      fit_.procs_cdf.begin(), fit_.procs_cdf.end(), u,
      [](const std::pair<double, std::int64_t>& step, double value) {
        return step.first < value;
      });
  if (it == fit_.procs_cdf.end()) {
    --it;
  }
  bag_procs_ = it->second;
}

GeneratedJob FittedJobStream::next() {
  if (bag_remaining_ == 0) {
    start_bag();
  } else if (fit_.intra_gap_quantiles.empty()) {
    now_ += arrivals_.exponential(fit_.intra_bag_gap_mean);
  } else {
    now_ += fit_.intra_gap_from_uniform(arrivals_.uniform01());
  }
  --bag_remaining_;
  // Gaussian copula across the bag: each task's deviate shares the bag
  // effect with weight sqrt(rho), so log runtimes correlate at rho.
  const double rho = fit_.runtime_correlation;
  const double z = std::sqrt(rho) * bag_effect_ +
                   std::sqrt(1.0 - rho) * runtimes_.normal(0.0, 1.0);
  GeneratedJob job;
  job.index = index_++;
  job.arrival = now_;
  job.runtime = fit_.runtime_from_normal(z);
  job.procs = bag_procs_;
  job.bag = bag_;
  job.bag_size = bag_size_;
  return job;
}

}  // namespace aheft::archive
