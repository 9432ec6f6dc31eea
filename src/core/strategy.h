// Unified strategy drivers for the three approaches the paper compares:
// static HEFT, adaptive AHEFT, and dynamic just-in-time scheduling.
//
// Every strategy runs inside a SimulationSession and receives the exact
// same environment — resource pool event stream, load profile, trace
// recorder, performance-history repository — by construction, which is
// what makes their makespans comparable. A WorkflowInstance is the one
// description of a workflow to launch. A driver launches instances
// into a shared session (a workflow stream), or runs one alone in a
// fresh session (run_alone; run_strategy is the classic single-DAG
// comparison on top of it).
#ifndef AHEFT_CORE_STRATEGY_H_
#define AHEFT_CORE_STRATEGY_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dynamic_scheduler.h"
#include "core/outcome.h"
#include "core/planner.h"
#include "core/session.h"
#include "dag/dag.h"
#include "grid/cost_provider.h"

namespace aheft::core {

enum class StrategyKind { kStaticHeft, kAdaptiveAheft, kDynamic };

[[nodiscard]] std::string to_string(StrategyKind kind);

/// Inverse of to_string(StrategyKind) ("heft", "aheft", "dynamic");
/// empty optional when the name matches no strategy. The benches' and
/// examples' --strategy axes parse through this, so the CLI names and
/// the reported names can never drift apart.
[[nodiscard]] std::optional<StrategyKind> strategy_from_string(
    std::string_view text);

/// Every strategy name strategy_from_string accepts, in enum order. The
/// benches' --help and unknown---strategy messages list these, so the
/// advertised names always match what actually parses.
[[nodiscard]] std::vector<std::string> strategy_names();

/// Per-strategy knobs. The planner config drives HEFT (reaction flags
/// forced off) and AHEFT; the dynamic baseline is always Min-Min.
/// PlannerConfig::contention_aware applies to every strategy: the
/// planners fit their (re)plans into the session ledger's availability
/// snapshot, and the dynamic baseline's release-time greedy-EFT estimate
/// prices the same snapshot.
struct StrategyConfig {
  PlannerConfig planner;
};

/// One workflow to launch into a session. The DAG and cost providers
/// must outlive the session's run.
struct WorkflowInstance {
  std::string name;
  const dag::Dag* dag = nullptr;
  /// The planner's view (the Predictor output P).
  const grid::CostProvider* estimates = nullptr;
  /// What the simulated grid really does.
  const grid::CostProvider* actual = nullptr;
  /// Simulation time the workflow is released (>= the session clock).
  sim::Time arrival = sim::kTimeZero;
  /// Weight under the session's contention policy: strict rank for
  /// "priority", share weight for "fair-share", ignored by "fcfs".
  double priority = 1.0;
};

/// One scheduling strategy, launchable into any session. Drivers own the
/// per-launch state (planner or dynamic execution) until the session's
/// run completes, so a driver must outlive every session it launched
/// into; the DAG and cost providers must outlive the run as well.
class StrategyDriver {
 public:
  virtual ~StrategyDriver() = default;

  [[nodiscard]] virtual StrategyKind kind() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Receives the planner's or dynamic execution's outcome by value,
  /// moved up from the run without copying.
  using Completion = std::function<void(StrategyOutcome)>;

  /// Begins executing `instance` inside `session` at its arrival, on
  /// the shard bound to the calling thread (shard 0 when unbound); `done`
  /// fires on the session clock when the workflow completes or fails.
  /// May be called any number of times, including for concurrently
  /// executing workflows in one session.
  virtual void launch(SimulationSession& session,
                      const WorkflowInstance& instance, Completion done) = 0;
};

/// Builds the driver for `kind` with the given knobs.
[[nodiscard]] std::unique_ptr<StrategyDriver> make_strategy_driver(
    StrategyKind kind, const StrategyConfig& config = {});

/// Runs `instance` through `driver` alone: a fresh session over `env`
/// with no competing workflow, run to completion. The one routine behind
/// run_strategy and the workflow stream's solo baselines.
[[nodiscard]] StrategyOutcome run_alone(const SessionEnvironment& env,
                                        StrategyDriver& driver,
                                        const WorkflowInstance& instance);

/// Runs one DAG, released at time 0, alone over `env` through a fresh
/// driver for `kind`: the single-workflow comparison of the strategies.
[[nodiscard]] StrategyOutcome run_strategy(
    StrategyKind kind, const dag::Dag& dag,
    const grid::CostProvider& estimates, const grid::CostProvider& actual,
    const SessionEnvironment& env, const StrategyConfig& config = {});

}  // namespace aheft::core

#endif  // AHEFT_CORE_STRATEGY_H_
