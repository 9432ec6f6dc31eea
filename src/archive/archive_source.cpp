#include "archive/archive_source.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "archive/fitted_model.h"
#include "archive/swf_reader.h"
#include "support/assert.h"

namespace aheft::archive {

namespace {

using traces::ArchiveParams;
using traces::CompiledScenario;
using traces::ScenarioRequest;

constexpr double kSecondsPerHour = 3600.0;
constexpr double kSecondsPerDay = 86400.0;
/// Background load past this much simulated time is dropped (soak runs
/// with huge horizons would otherwise accumulate unbounded segments).
constexpr double kLoadHorizonDays = 14.0;
/// Replay utilization is averaged over at most this many buckets.
constexpr std::size_t kUtilizationBuckets = 256;

/// Sweeps share archives across hundreds of cases; parse each path once
/// per process (same idiom and caveats as the TraceSource cache).
const SwfLog& cached_log(const std::string& path) {
  static std::mutex mutex;
  static std::map<std::string, SwfLog, std::less<>> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(path);
  if (it == cache.end()) {
    it = cache.emplace(path, read_swf_file(path)).first;
  }
  return it->second;
}

void validate(const ArchiveParams& params) {
  AHEFT_REQUIRE(!params.text.empty() || !params.path.empty(),
                "archive scenario source needs archive.path or archive.text");
  AHEFT_REQUIRE(params.time_scale > 0.0 && std::isfinite(params.time_scale),
                "archive.time_scale must be positive and finite");
  AHEFT_REQUIRE(params.max_machines >= 1,
                "archive.max_machines must be at least one");
  AHEFT_REQUIRE(params.background_load >= 0.0 &&
                    std::isfinite(params.background_load),
                "archive.background_load must be non-negative and finite");
  AHEFT_REQUIRE(params.bag_window >= 0.0,
                "archive.bag_window must be non-negative");
}

/// Inline text wins over the path (mirrors the trace backend).
const SwfLog& request_log(const ArchiveParams& params, SwfLog& owned) {
  if (!params.text.empty()) {
    owned = read_swf_string(params.text);
    return owned;
  }
  return cached_log(params.path);
}

/// Grid size: explicit knob, else the log's MaxNodes / MaxProcs headers,
/// else the archive's peak concurrent processor demand — capped so a
/// 1000-node production log maps onto a solvable HEFT grid.
std::size_t pool_size(const SwfHeader& header, std::size_t demand_peak,
                      const ArchiveParams& params) {
  if (params.machines > 0) {
    return params.machines;
  }
  std::size_t derived = header.max_nodes();
  if (derived == 0) {
    derived = header.max_procs();
  }
  if (derived == 0) {
    derived = demand_peak;
  }
  return std::clamp<std::size_t>(derived, 1, params.max_machines);
}

std::vector<grid::ResourceId> build_pool(CompiledScenario& scenario,
                                         std::size_t machines) {
  for (std::size_t i = 0; i < machines; ++i) {
    scenario.pool.add(grid::Resource{.name = "", .arrival = sim::kTimeZero});
  }
  std::vector<grid::ResourceId> ids;
  ids.reserve(machines);
  for (const grid::Resource& resource : scenario.pool.all()) {
    ids.push_back(resource.id);
  }
  return ids;
}

/// One grid-wide load level: all machines run at `multiplier` over
/// [start, end) — times in archive seconds, scaled at emission.
struct LoadLevel {
  double start = 0.0;
  double end = 0.0;
  double multiplier = 1.0;
};

/// Quantizes a multiplier to 0.05 steps so adjacent windows merge.
double quantize(double multiplier) {
  return std::round(multiplier * 20.0) / 20.0;
}

void append_level(std::vector<LoadLevel>& levels, double start, double end,
                  double multiplier) {
  if (multiplier <= 1.0 + 1e-9 || !(end > start)) {
    return;  // no measurable slowdown
  }
  if (!levels.empty() && levels.back().multiplier == multiplier &&
      levels.back().end == start) {
    levels.back().end = end;
  } else {
    levels.push_back(LoadLevel{start, end, multiplier});
  }
}

struct UtilizationProfile {
  std::vector<LoadLevel> levels;
  double capacity = 0.0;  ///< peak concurrent busy processors
};

/// The archive's processor-utilization timeline, bucket-averaged and
/// turned into load multipliers 1 + amplitude * utilization.
UtilizationProfile utilization_profile(const std::vector<SwfJob>& jobs,
                                       double t0, double amplitude) {
  UtilizationProfile profile;
  std::vector<std::pair<double, double>> deltas;  // (time, +-procs)
  deltas.reserve(jobs.size() * 2);
  for (const SwfJob& job : jobs) {
    const double start = job.submit - t0 + std::max(job.wait, 0.0);
    const auto procs = static_cast<double>(job.procs);
    deltas.emplace_back(start, procs);
    deltas.emplace_back(start + job.runtime, -procs);
  }
  std::sort(deltas.begin(), deltas.end());

  // Collapse into a piecewise-constant busy-processor step function.
  std::vector<std::pair<double, double>> steps;  // (time, busy from here)
  double busy = 0.0;
  for (std::size_t i = 0; i < deltas.size();) {
    std::size_t j = i;
    while (j < deltas.size() && deltas[j].first == deltas[i].first) {
      busy += deltas[j].second;
      ++j;
    }
    steps.emplace_back(deltas[i].first, busy);
    profile.capacity = std::max(profile.capacity, busy);
    i = j;
  }
  const double span = steps.empty() ? 0.0 : steps.back().first;
  if (!(span > 0.0) || profile.capacity <= 0.0 || amplitude <= 0.0) {
    return profile;
  }

  // Time-averaged utilization per bucket.
  const std::size_t buckets = kUtilizationBuckets;
  const double width = span / static_cast<double>(buckets);
  std::vector<double> integral(buckets, 0.0);
  for (std::size_t i = 0; i + 1 <= steps.size(); ++i) {
    const double a = steps[i].first;
    const double b = i + 1 < steps.size() ? steps[i + 1].first : span;
    const double u = steps[i].second / profile.capacity;
    if (!(b > a) || u <= 0.0) {
      continue;
    }
    auto bucket = static_cast<std::size_t>(a / width);
    bucket = std::min(bucket, buckets - 1);
    for (; bucket < buckets; ++bucket) {
      const double lo = std::max(a, static_cast<double>(bucket) * width);
      const double hi =
          std::min(b, static_cast<double>(bucket + 1) * width);
      if (!(hi > lo)) {
        break;
      }
      integral[bucket] += u * (hi - lo);
    }
  }
  for (std::size_t bucket = 0; bucket < buckets; ++bucket) {
    const double start = static_cast<double>(bucket) * width;
    const double multiplier =
        quantize(1.0 + amplitude * integral[bucket] / width);
    append_level(profile.levels, start, start + width, multiplier);
  }
  return profile;
}

void emit_load(CompiledScenario& scenario,
               const std::vector<grid::ResourceId>& machines,
               const std::vector<LoadLevel>& levels, double time_scale) {
  for (const LoadLevel& level : levels) {
    for (const grid::ResourceId id : machines) {
      scenario.load.add(id, level.start * time_scale,
                        level.end * time_scale, level.multiplier);
    }
  }
}

// ------------------------------------------------------------ archive --

/// Replays a parsed SWF/GWA log as a CompiledScenario: static pool sized
/// from the log, utilization-bucket background load, one workflow
/// arrival per usable job. The timeline is fixed by the file, so the
/// backend is horizon-insensitive (like `trace`).
class ArchiveReplaySource final : public traces::ScenarioSource {
 public:
  [[nodiscard]] std::string name() const override { return "archive"; }
  [[nodiscard]] std::string description() const override {
    return "replay of an SWF/GWA workload archive (pool, load, arrivals)";
  }
  [[nodiscard]] bool horizon_sensitive() const override { return false; }

  [[nodiscard]] CompiledScenario build(
      const ScenarioRequest& request) const override {
    const ArchiveParams& params = request.archive;
    validate(params);
    SwfLog owned;
    const SwfLog& log = request_log(params, owned);
    const std::vector<SwfJob> jobs =
        usable_jobs(log, params.include_failed);
    if (jobs.empty()) {
      throw std::invalid_argument(
          "archive has no usable jobs (completed, positive runtime)");
    }
    const double t0 = jobs.front().submit;

    CompiledScenario scenario;
    const UtilizationProfile profile =
        utilization_profile(jobs, t0, params.background_load);
    const std::size_t machines = pool_size(
        log.header, static_cast<std::size_t>(profile.capacity), params);
    const std::vector<grid::ResourceId> ids = build_pool(scenario, machines);
    emit_load(scenario, ids, profile.levels, params.time_scale);

    std::size_t count = jobs.size();
    if (request.stream.jobs > 0) {
      count = std::min(count, request.stream.jobs);
    }
    if (params.max_jobs > 0) {
      count = std::min(count, params.max_jobs);
    }
    scenario.job_arrivals.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      scenario.job_arrivals.push_back(traces::JobArrivalRecord{
          static_cast<std::uint32_t>(k),
          (jobs[k].submit - t0) * params.time_scale,
          "swf" + std::to_string(jobs[k].id)});
    }

    scenario.load.sort();
    return scenario;
  }
};

// ------------------------------------------------------------- fitted --

/// Fits the archive's marginals and generates a fresh, seeded stream
/// from them: diurnal arrivals, heavy-tailed runtimes, bag-of-task
/// bursts. Unlike `archive` this is horizon-sensitive — the diurnal
/// background load extends with the horizon — and unbounded: any
/// stream.jobs count is served with O(1) generator state.
class FittedSource final : public traces::ScenarioSource {
 public:
  [[nodiscard]] std::string name() const override { return "fitted"; }
  [[nodiscard]] std::string description() const override {
    return "generator fitted to an SWF/GWA archive (diurnal arrivals, "
           "heavy-tailed runtimes, task bags)";
  }

  [[nodiscard]] CompiledScenario build(
      const ScenarioRequest& request) const override {
    const ArchiveParams& params = request.archive;
    validate(params);
    SwfLog owned;
    const SwfLog& log = request_log(params, owned);
    const ArchiveFit fit = fit_archive(
        log, FitOptions{.bag_window = params.bag_window,
                        .include_failed = params.include_failed});

    CompiledScenario scenario;
    const auto demand_peak =
        static_cast<std::size_t>(std::max<std::int64_t>(
            fit.procs_cdf.empty() ? 1 : fit.procs_cdf.back().second, 1));
    const std::size_t machines = pool_size(log.header, demand_peak, params);
    const std::vector<grid::ResourceId> ids = build_pool(scenario, machines);

    if (request.stream.jobs > 0) {
      FittedJobStream stream(fit, request.seed);
      scenario.job_arrivals.reserve(request.stream.jobs);
      for (std::size_t k = 0; k < request.stream.jobs; ++k) {
        const GeneratedJob job = stream.next();
        scenario.job_arrivals.push_back(traces::JobArrivalRecord{
            static_cast<std::uint32_t>(k), job.arrival * params.time_scale,
            "gen" + std::to_string(k)});
      }
    }

    // Diurnal background load: hour h of the archive clock runs at
    // 1 + background_load * rate_h / peak_rate, repeated out to the
    // horizon (capped — soak horizons would accumulate segments forever).
    if (params.background_load > 0.0 && request.horizon > sim::kTimeZero &&
        fit.peak_rate > 0.0) {
      const double cap_sim = std::min<double>(
          request.horizon,
          kLoadHorizonDays * kSecondsPerDay * params.time_scale);
      const double cap_archive = cap_sim / params.time_scale;
      std::vector<LoadLevel> levels;
      double at = 0.0;
      while (at < cap_archive) {
        double day = std::fmod(fit.phase_seconds + at, kSecondsPerDay);
        if (day < 0.0) {
          day += kSecondsPerDay;
        }
        const auto hour = std::min<std::size_t>(
            23, static_cast<std::size_t>(day / kSecondsPerHour));
        const double boundary =
            at + (kSecondsPerHour - std::fmod(day, kSecondsPerHour));
        const double end = std::min(boundary, cap_archive);
        if (!(end > at)) {
          break;
        }
        append_level(levels, at, end,
                     quantize(1.0 + params.background_load *
                                        fit.hourly_rate[hour] /
                                        fit.peak_rate));
        at = end;
      }
      emit_load(scenario, ids, levels, params.time_scale);
    }

    scenario.load.sort();
    return scenario;
  }
};

}  // namespace

std::unique_ptr<traces::ScenarioSource> make_archive_source() {
  return std::make_unique<ArchiveReplaySource>();
}

std::unique_ptr<traces::ScenarioSource> make_fitted_source() {
  return std::make_unique<FittedSource>();
}

}  // namespace aheft::archive
