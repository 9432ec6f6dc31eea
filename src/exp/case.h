// One experiment case: a workload, a resource model, a seed, and the
// strategies to run on it.
#ifndef AHEFT_EXP_CASE_H_
#define AHEFT_EXP_CASE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/policies.h"
#include "core/workflow_stream.h"
#include "traces/scenario_source.h"
#include "workloads/scenario.h"

namespace aheft::exp {

enum class AppKind { kRandom, kBlast, kWien2k, kMontage, kGaussian };

[[nodiscard]] std::string to_string(AppKind app);

struct CaseSpec {
  AppKind app = AppKind::kRandom;
  /// Jobs for random DAGs; degree of parallelism for applications.
  std::size_t size = 40;
  double ccr = 1.0;
  double out_degree = 0.2;  ///< random DAGs only
  double beta = 0.5;
  workloads::ResourceDynamics dynamics;
  std::uint64_t seed = 0;
  /// Also simulate the dynamic Min-Min baseline (costs extra).
  bool run_dynamic = false;
  /// Resource arrivals are generated up to horizon_factor x the initial
  /// HEFT makespan. 1.0 suffices for HEFT-vs-AHEFT (AHEFT never exceeds
  /// the initial plan); use >= 4 when the dynamic baseline runs, since it
  /// can finish well after the static plan would have.
  double horizon_factor = 1.0;
  core::SchedulerConfig scheduler;
  /// Name of the built-in scenario source building the grid environment
  /// (see traces::scenario_source_names()).
  std::string scenario_source = "synthetic";
  /// Trace file consumed by the "trace" source.
  std::string trace_path;
  /// Volatility knobs consumed by the "bursty" source.
  traces::BurstyParams bursty;
  /// SWF/GWA log knobs consumed by the "archive" and "fitted" sources.
  traces::ArchiveParams archive;
  /// Also react to Performance Monitor variance events (load-driven
  /// estimate/actual divergence), not just pool changes.
  bool react_to_variance = false;
  /// Multi-DAG stream axis: number of concurrent workflow instances
  /// submitted from the scenario's job-arrival records (run_stream_case).
  /// 0 keeps the classic single-DAG case. Generator sources emit the
  /// arrival records; the trace source carries its own.
  std::size_t stream_jobs = 0;
  /// Mean gap between consecutive workflow arrivals (generator sources).
  double stream_interarrival = 400.0;
  /// ContentionPolicyRegistry name arbitrating cross-workflow machine
  /// contention in the session ("fcfs", "priority", "fair-share", ...).
  std::string contention_policy = "fcfs";
  /// Session-level ledger backfilling (SessionEnvironment::backfill):
  /// deferred requests may be granted holes in a resource's reservation
  /// timeline when provably harmless. Off by default — backfilled grants
  /// change the FCFS event stream, and the default configuration stays
  /// bit-stable across PRs.
  bool backfill = false;
  /// Contention-aware planning (PlannerConfig::contention_aware): every
  /// planning pass fits into the session ledger's availability snapshot
  /// instead of assuming an empty grid. Off by default — single-DAG
  /// cases snapshot an empty view anyway, and the multi-DAG default
  /// stays bit-stable across PRs.
  bool contention_aware = false;
  /// Per-workflow priorities / fair-share weights, cycled over the stream
  /// instances (instance k gets stream_priorities[k % size()]); empty
  /// means every workflow weighs 1.
  std::vector<double> stream_priorities;
  /// Resilience knobs (SessionEnvironment::resilience): departure
  /// handling, checkpoint/restart model, fair-share preemption. The
  /// default config is inactive and keeps every case bit-stable.
  resilience::ResilienceConfig resilience;
  /// Parallel event-loop shards for stream sessions
  /// (SessionEnvironment::shards). 1 — the default — is the serial
  /// session; single-DAG cases (run_case) require 1.
  std::size_t shards = 1;
  /// Feed each strategy a fresh PerformanceHistoryRepository (the paper's
  /// Fig. 1 repository AHEFT's planner records into); its deterministic
  /// fingerprint is exported on StreamStrategySummary. Off by default.
  bool use_history = false;
};

struct CaseResult {
  double heft_makespan = 0.0;
  double aheft_makespan = 0.0;
  double minmin_makespan = 0.0;  ///< 0 when the dynamic baseline was skipped
  std::size_t evaluations = 0;   ///< events the AHEFT planner evaluated
  std::size_t adoptions = 0;     ///< reschedules adopted
  std::size_t jobs = 0;          ///< realized DAG size
  std::size_t universe = 0;      ///< total resources (initial + arrivals)
};

/// The fully resolved environment a spec compiles to: the generated
/// workload, the pass-2 scenario (pool + load + event stream) built by
/// the spec's scenario source, the ground-truth cost model over the
/// universe, and the sizing pass's static HEFT plan makespan. Exposed so
/// benches and examples can record a case's environment to a trace file
/// and replay it through the "trace" source.
struct CaseEnvironment {
  workloads::Workload workload;
  traces::CompiledScenario scenario;
  grid::MachineModel model;
  sim::Time heft_plan_makespan = sim::kTimeZero;
};

/// Deterministically resolves a spec's environment (same spec, same
/// environment, on any thread).
[[nodiscard]] CaseEnvironment build_case_environment(const CaseSpec& spec);

/// Generates the workload and grid deterministically from the spec's seed
/// and simulates the requested strategies. The same spec always produces
/// the same result, on any thread.
[[nodiscard]] CaseResult run_case(const CaseSpec& spec);

/// Per-strategy aggregate of one multi-DAG stream run: the stream's own
/// outcome (aggregates, merged counters, and per-workflow results) plus
/// per-workflow columns in arrival order.
struct StreamStrategySummary : core::StreamOutcome {
  std::vector<double> makespans;   ///< per workflow, arrival order
  std::vector<double> slowdowns;   ///< contended / solo, arrival order
  std::vector<double> waits;       ///< contention wait, arrival order
  /// Performance-history fingerprint when CaseSpec::use_history fed the
  /// strategy a repository: total observations absorbed and every
  /// (operation, resource) key's smoothed estimate in key order — a
  /// byte-comparable digest for twin-run determinism checks.
  std::size_t history_observations = 0;
  std::vector<double> history_estimates;
};

struct StreamCaseResult {
  StreamStrategySummary heft;
  StreamStrategySummary aheft;
  StreamStrategySummary minmin;
  std::size_t workflows = 0;  ///< stream length
  std::size_t universe = 0;   ///< total resources (initial + arrivals)
};

/// The materialized workflow instances of a stream case. The instances
/// point into the workloads/models vectors, so the setup must stay alive
/// (and unmoved-from) while they run; moving the whole struct is fine.
struct StreamSetup {
  std::vector<workloads::Workload> workloads;
  std::vector<grid::MachineModel> models;
  std::vector<core::WorkflowInstance> instances;
};

/// Materializes one workflow instance per job-arrival record of the
/// spec's scenario: instance 0 reuses the environment's base workload;
/// later instances draw fresh DAGs of the spec's shape and fresh cost
/// columns over the shared universe. Priorities follow
/// CaseSpec::stream_priorities. Deterministic for a fixed spec.
[[nodiscard]] StreamSetup build_stream_setup(const CaseSpec& spec,
                                             const CaseEnvironment& env);

/// Runs one strategy's stream over the setup inside a shared session
/// using the spec's contention policy.
[[nodiscard]] StreamStrategySummary run_stream_strategy(
    const CaseSpec& spec, const CaseEnvironment& env,
    const StreamSetup& setup, core::StrategyKind kind);

/// Multi-DAG stream case: materializes the stream instances (see
/// build_stream_setup) and runs all three strategies through identical
/// shared sessions. Deterministic for a fixed spec, on any thread.
[[nodiscard]] StreamCaseResult run_stream_case(const CaseSpec& spec);

}  // namespace aheft::exp

#endif  // AHEFT_EXP_CASE_H_
