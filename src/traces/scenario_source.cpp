#include "traces/scenario_source.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "archive/archive_source.h"
#include "support/assert.h"
#include "support/rng.h"

namespace aheft::traces {

namespace {

/// Emits `count` workflow-arrival records with the given gaps: arrival k
/// lands at the sum of gaps[0..k) (workflow 0 at t = 0).
void emit_job_arrivals(CompiledScenario& scenario, std::size_t count,
                       const std::vector<sim::Time>& gaps) {
  sim::Time at = sim::kTimeZero;
  for (std::size_t k = 0; k < count; ++k) {
    if (k > 0) {
      at += gaps[k - 1];
    }
    scenario.job_arrivals.push_back(JobArrivalRecord{
        static_cast<std::uint32_t>(k), at, "wf" + std::to_string(k)});
  }
}

// ---------------------------------------------------------- synthetic --

/// Wraps the paper's fixed-interval arrival law (Table 2/5).
class SyntheticSource final : public ScenarioSource {
 public:
  [[nodiscard]] std::string name() const override { return "synthetic"; }
  [[nodiscard]] std::string description() const override {
    return "fixed-interval resource arrivals (paper Table 2/5), no load";
  }

  [[nodiscard]] CompiledScenario build(
      const ScenarioRequest& request) const override {
    workloads::validate(request.dynamics);
    AHEFT_REQUIRE(request.stream.jobs == 0 ||
                      request.stream.interarrival_mean > 0.0,
                  "stream interarrival mean must be positive");
    CompiledScenario scenario;
    scenario.pool =
        workloads::build_dynamic_pool(request.dynamics, request.horizon);
    // Fixed-interval workflow arrivals, matching the backend's
    // fixed-interval resource law.
    const std::vector<sim::Time> gaps(
        request.stream.jobs > 0 ? request.stream.jobs - 1 : 0,
        request.stream.interarrival_mean);
    emit_job_arrivals(scenario, request.stream.jobs, gaps);
    return scenario;
  }
};

// -------------------------------------------------------------- trace --

/// Replays a recorded trace file (or inline text) through compile_trace().
class TraceSource final : public ScenarioSource {
 public:
  [[nodiscard]] std::string name() const override { return "trace"; }
  [[nodiscard]] std::string description() const override {
    return "replay of a recorded grid trace (trace_path or trace_text)";
  }
  [[nodiscard]] bool horizon_sensitive() const override { return false; }

  [[nodiscard]] CompiledScenario build(
      const ScenarioRequest& request) const override {
    if (request.trace_text.empty() && request.trace_path.empty()) {
      throw std::invalid_argument(
          "trace scenario source needs trace_path or trace_text");
    }
    if (!request.trace_text.empty()) {
      return compile_trace(read_trace_string(request.trace_text));
    }
    // Sweeps run hundreds of cases against the same file from worker
    // threads; parse each path once for the process lifetime. (A file
    // rewritten in place mid-process keeps serving the first parse.)
    // Entries are never erased and std::map nodes are stable, so only
    // the lookup needs the lock — per-case compilation runs outside it.
    const GridTrace* trace = nullptr;
    {
      const std::lock_guard<std::mutex> lock(cache_mutex_);
      auto it = cache_.find(request.trace_path);
      if (it == cache_.end()) {
        it = cache_.emplace(request.trace_path,
                            read_trace_file(request.trace_path))
                 .first;
      }
      trace = &it->second;
    }
    return compile_trace(*trace);
  }

 private:
  mutable std::mutex cache_mutex_;
  mutable std::map<std::string, GridTrace, std::less<>> cache_;
};

// ------------------------------------------------------------- bursty --

/// MMPP-style on/off volatility: the grid alternates between calm and
/// burst phases with exponentially distributed durations. Resources
/// arrive as a Poisson process whose rate depends on the phase, and each
/// burst puts a load spike on a random subset of the machines live at
/// its onset. Departures are never generated (the paper's §4.1
/// assumption 3), so bursty scenarios compose safely with load scaling.
class BurstySource final : public ScenarioSource {
 public:
  [[nodiscard]] std::string name() const override { return "bursty"; }
  [[nodiscard]] std::string description() const override {
    return "MMPP-style on/off volatility: bursty arrivals and load spikes";
  }

  [[nodiscard]] CompiledScenario build(
      const ScenarioRequest& request) const override {
    const BurstyParams& params = request.bursty;
    AHEFT_REQUIRE(request.dynamics.initial > 0,
                  "bursty scenario needs at least one initial resource");
    AHEFT_REQUIRE(params.mean_calm > 0.0 && params.mean_burst > 0.0,
                  "bursty phase durations must be positive");
    AHEFT_REQUIRE(
        params.calm_arrival_mean > 0.0 && params.burst_arrival_mean > 0.0,
        "bursty arrival means must be positive");
    AHEFT_REQUIRE(params.spike_fraction >= 0.0 && params.spike_fraction <= 1.0,
                  "spike_fraction must lie in [0, 1]");
    AHEFT_REQUIRE(params.spike_min > 0.0 &&
                      params.spike_max >= params.spike_min,
                  "spike multipliers need 0 < spike_min <= spike_max");
    AHEFT_REQUIRE(
        params.failure_fraction >= 0.0 && params.failure_fraction <= 1.0,
        "failure_fraction must lie in [0, 1]");
    AHEFT_REQUIRE(params.repair_mean > 0.0,
                  "repair_mean must be positive");
    AHEFT_REQUIRE(request.stream.jobs == 0 ||
                      request.stream.interarrival_mean > 0.0,
                  "stream interarrival mean must be positive");

    CompiledScenario scenario;
    for (std::size_t i = 0; i < request.dynamics.initial; ++i) {
      scenario.pool.add(grid::Resource{.name = "", .arrival = sim::kTimeZero});
    }

    RngStream phases = RngStream(request.seed).child("phases");
    RngStream arrivals = RngStream(request.seed).child("arrivals");
    RngStream spikes = RngStream(request.seed).child("spikes");
    RngStream failures = RngStream(request.seed).child("failures");

    sim::Time t = sim::kTimeZero;
    bool burst = false;
    while (t < request.horizon) {
      const double mean = burst ? params.mean_burst : params.mean_calm;
      const sim::Time phase_end =
          std::min(t + phases.exponential(mean), request.horizon);

      if (burst) {
        std::vector<grid::ResourceId> live;
        for (const grid::Resource& r : scenario.pool.all()) {
          if (r.available_at(t)) {
            live.push_back(r.id);
          }
        }

        // Failure burst: a correlated subset of the live machines departs
        // together at the burst onset; each is replaced by a fresh
        // resource once repaired. At least one live machine survives so
        // the grid never empties.
        if (params.failure_fraction > 0.0 && live.size() > 1) {
          std::vector<grid::ResourceId> victims = live;
          failures.shuffle(victims);
          const auto failing = std::min(
              static_cast<std::size_t>(std::lround(
                  params.failure_fraction *
                  static_cast<double>(victims.size()))),
              victims.size() - 1);
          for (std::size_t i = 0; i < failing; ++i) {
            scenario.pool.set_departure(victims[i], t);
            scenario.pool.add(grid::Resource{
                .name = "",
                .arrival = t + failures.exponential(params.repair_mean)});
            live.erase(std::find(live.begin(), live.end(), victims[i]));
          }
        }

        // Spike a random subset of the machines that survived the onset.
        spikes.shuffle(live);
        const auto count = static_cast<std::size_t>(std::lround(
            params.spike_fraction * static_cast<double>(live.size())));
        for (std::size_t i = 0; i < std::min(count, live.size()); ++i) {
          scenario.load.add(live[i], t, phase_end,
                            spikes.uniform(params.spike_min,
                                           params.spike_max));
        }
      }

      // Poisson resource arrivals at the phase's rate.
      const double arrival_mean =
          burst ? params.burst_arrival_mean : params.calm_arrival_mean;
      sim::Time at = t + arrivals.exponential(arrival_mean);
      while (at < phase_end) {
        scenario.pool.add(grid::Resource{.name = "", .arrival = at});
        at += arrivals.exponential(arrival_mean);
      }

      t = phase_end;
      burst = !burst;
    }

    // Workflow arrivals: workflow 0 at t = 0, exponential gaps after it.
    if (request.stream.jobs > 0) {
      RngStream jobs = RngStream(request.seed).child("jobs");
      std::vector<sim::Time> gaps(request.stream.jobs - 1);
      for (sim::Time& gap : gaps) {
        gap = jobs.exponential(request.stream.interarrival_mean);
      }
      emit_job_arrivals(scenario, request.stream.jobs, gaps);
    }

    scenario.load.sort();
    return scenario;
  }
};

using SourceTable = std::array<std::unique_ptr<const ScenarioSource>, 5>;

/// The built-in backends, sorted by name. Built once, on first use, and
/// never changed after, so lookups need no lock.
const SourceTable& builtin_sources() {
  static const SourceTable table{
      archive::make_archive_source(), std::make_unique<BurstySource>(),
      archive::make_fitted_source(), std::make_unique<SyntheticSource>(),
      std::make_unique<TraceSource>()};
  return table;
}

}  // namespace

const ScenarioSource& scenario_source(std::string_view name) {
  for (const auto& source : builtin_sources()) {
    if (source->name() == name) {
      return *source;
    }
  }
  std::ostringstream os;
  os << "unknown scenario source '" << name << "' (known:";
  for (const std::string& known : scenario_source_names()) {
    os << ' ' << known;
  }
  os << ')';
  throw std::invalid_argument(os.str());
}

std::vector<std::string> scenario_source_names() {
  std::vector<std::string> out;
  for (const auto& source : builtin_sources()) {
    out.push_back(source->name());
  }
  return out;
}

CompiledScenario build_scenario(std::string_view source,
                                const ScenarioRequest& request) {
  return scenario_source(source).build(request);
}

}  // namespace aheft::traces
