// Scenario sources: named backends that turn a ScenarioRequest into a
// CompiledScenario (pool, load and workflow arrivals).
//
// Simulations select an environment by name from a fixed table of the
// built-in backends:
//
//   synthetic  the paper's Table 2/5 resource dynamics — fixed-interval
//              arrivals via workloads::build_dynamic_pool, no load
//   trace      file- or text-driven replay through compile_trace()
//   bursty     MMPP-style on/off volatility: calm/burst phases with
//              phase-dependent Poisson resource arrivals and load spikes
//              on a random subset of machines during bursts
//   archive    replay of a real SWF/GWA workload archive (src/archive)
//   fitted     statistical generator fitted to an SWF/GWA archive:
//              diurnal arrivals, heavy-tailed runtimes, task bags
#ifndef AHEFT_TRACES_SCENARIO_SOURCE_H_
#define AHEFT_TRACES_SCENARIO_SOURCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "traces/compiler.h"
#include "workloads/scenario.h"

namespace aheft::traces {

/// Knobs of the `bursty` backend (means are of exponential draws).
struct BurstyParams {
  double mean_calm = 600.0;         ///< calm-phase duration
  double mean_burst = 150.0;        ///< burst-phase duration
  double calm_arrival_mean = 1200.0;  ///< resource inter-arrival, calm
  double burst_arrival_mean = 40.0;   ///< resource inter-arrival, burst
  /// Fraction of the machines live at burst onset that get a load spike.
  double spike_fraction = 0.4;
  double spike_min = 1.5;  ///< spike multiplier lower bound
  double spike_max = 3.5;  ///< spike multiplier upper bound
  /// Failure bursts: fraction of the machines live at burst onset that
  /// depart together (correlated failures). At least one live machine
  /// always survives. 0 disables failures (the paper's assumption 3).
  /// Note that only the adaptive strategy reschedules around departures;
  /// static plans caught on a failed machine cannot finish.
  double failure_fraction = 0.0;
  /// Mean repair time: each failed machine is replaced by a fresh
  /// resource joining repair-time units after the failure.
  double repair_mean = 300.0;
};

/// Knobs of the `archive` (SWF/GWA replay) and `fitted` (statistical
/// generator) backends implemented in src/archive. Plain values only, so
/// the traces layer needs no archive headers.
struct ArchiveParams {
  std::string path;  ///< SWF/GWA log file to load
  std::string text;  ///< inline SWF text; wins over path when non-empty
  /// Pool size; 0 derives it from the log (MaxNodes, then MaxProcs, then
  /// the peak concurrent processor demand), capped by max_machines.
  std::size_t machines = 0;
  std::size_t max_machines = 64;
  /// Archive seconds are multiplied by this on the way into the
  /// simulation clock (compresses months-long logs into solvable
  /// horizons). Applies to arrivals and load segments alike.
  double time_scale = 1.0;
  /// `archive` replay: cap on emitted workflow arrivals (0 = stream.jobs
  /// when set, else every usable job).
  std::size_t max_jobs = 0;
  /// Use failed/cancelled jobs too, not just completed ones.
  bool include_failed = false;
  /// `fitted`: submissions by one user at most this many archive seconds
  /// apart form one bag of tasks.
  double bag_window = 120.0;
  /// Load amplitude: utilization u (replay) or relative arrival rate
  /// (fitted) slows machines by a factor 1 + background_load * u.
  /// 0 disables background load.
  double background_load = 0.5;
};

/// Workload-stream knobs consumed by the generator backends: emit this
/// many `job` arrival records into CompiledScenario::job_arrivals
/// (0 = single-DAG scenario). The `trace` backend carries its own
/// records and ignores these.
struct StreamParams {
  std::size_t jobs = 0;
  /// Mean gap between consecutive workflow arrivals (the first arrives
  /// at t = 0). `synthetic` spaces arrivals exactly this far apart;
  /// `bursty` draws exponential gaps.
  double interarrival_mean = 400.0;
};

/// Everything a backend may consume; each one reads the fields it needs
/// and ignores the rest (the codes-workload "params" convention).
struct ScenarioRequest {
  /// Initial pool size and synthetic arrival law.
  workloads::ResourceDynamics dynamics;
  /// Generate environment dynamics up to this time; 0 yields the t = 0
  /// pool alone (used by sizing pre-passes). Ignored by `trace`.
  sim::Time horizon = sim::kTimeZero;
  /// Generator entropy; same (seed, horizon) always reproduces the same
  /// scenario. Ignored by `trace`.
  std::uint64_t seed = 0;
  /// `trace` backend: file to replay, or inline text when non-empty.
  std::string trace_path;
  std::string trace_text;
  BurstyParams bursty;
  /// `archive` / `fitted` backends: which log to replay or fit.
  ArchiveParams archive;
  /// Workflow-arrival stream emitted by the generator backends.
  StreamParams stream;
};

class ScenarioSource {
 public:
  virtual ~ScenarioSource() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::string description() const = 0;
  /// Builds the scenario; throws std::invalid_argument on a bad request.
  [[nodiscard]] virtual CompiledScenario build(
      const ScenarioRequest& request) const = 0;
  /// Whether the scenario depends on request.horizon. Replay-style
  /// backends carrying a fixed timeline return false, which lets
  /// two-pass consumers (horizon sizing, then full build) reuse the
  /// first build instead of re-reading the source.
  [[nodiscard]] virtual bool horizon_sensitive() const { return true; }
};

/// The built-in backend called `name`; throws std::invalid_argument
/// listing the known names when there is none. The reference stays
/// valid for the process lifetime.
[[nodiscard]] const ScenarioSource& scenario_source(std::string_view name);

/// The built-in backends' names, sorted.
[[nodiscard]] std::vector<std::string> scenario_source_names();

/// Resolves `source` with scenario_source() and builds the scenario.
[[nodiscard]] CompiledScenario build_scenario(std::string_view source,
                                              const ScenarioRequest& request);

}  // namespace aheft::traces

#endif  // AHEFT_TRACES_SCENARIO_SOURCE_H_
