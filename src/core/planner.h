// The Planner (paper Fig. 1) and the generic adaptive rescheduling loop
// (paper Fig. 2): schedule, listen for events, evaluate, adopt when the
// predicted makespan improves.
//
// The planner is event-driven: launch() plans at a release time inside a
// SimulationSession, whose environment supplies the pool, trace
// recorder, load profile, and history repository, and hands the run's
// StrategyOutcome to a completion callback on the session clock, so many
// workflows can share one simulator and one contended pool. A one-DAG
// run is core::run_strategy over a private session.
#ifndef AHEFT_CORE_PLANNER_H_
#define AHEFT_CORE_PLANNER_H_

#include <functional>
#include <memory>
#include <string>

#include "core/execution_engine.h"
#include "core/outcome.h"
#include "core/policies.h"
#include "core/session.h"
#include "grid/cost_provider.h"
#include "grid/resource_pool.h"

namespace aheft::core {

struct PlannerConfig {
  SchedulerConfig scheduler;
  /// React to resource-pool change events (the paper's primary trigger).
  bool react_to_pool_changes = true;
  /// React to performance-variance events from the Performance Monitor
  /// (extension; pairs with a noisy/history predictor).
  bool react_to_variance = false;
  /// Relative |actual - estimate| / estimate beyond which the monitor
  /// notifies the planner.
  double variance_threshold = 0.2;
  /// Contention-aware planning: every (re)planning pass snapshots the
  /// session ledger's foreign busy picture (competitors' committed
  /// windows + held claims) into an AvailabilityView and fits EST
  /// searches into its free gaps, so plans price the machines' real
  /// reservation timelines instead of an empty grid. A fresh snapshot is
  /// taken at release time and at every re-evaluation (recorded per
  /// decision in AdoptionRecord::view_snapshot). Off by default: the
  /// contention-blind pass stays bit-identical, and solo sessions always
  /// snapshot an empty (constraint-free) view anyway.
  bool contention_aware = false;
};

/// Couples one Scheduler instance with the Executor for a single DAG and
/// runs the event loop of Fig. 2 to completion.
class AdaptivePlanner {
 public:
  /// `estimates` is the Planner's view (the Predictor output P);
  /// `actual` is what the simulated grid really does. They coincide under
  /// the paper's accuracy assumption.
  AdaptivePlanner(const dag::Dag& dag, const grid::CostProvider& estimates,
                  const grid::CostProvider& actual,
                  const grid::ResourcePool& pool, PlannerConfig config = {});

  /// Receives the run's outcome (moved, not copied: the decision log and
  /// the last plan leave the planner).
  using Completion = std::function<void(StrategyOutcome)>;

  /// Schedules the initial plan at `release` (>= the session clock)
  /// inside `session` and subscribes to its event feeds; `done` fires on
  /// the session clock when the workflow completes or fails. The session
  /// environment supplies the pool (must be the constructor's), trace
  /// recorder, load profile, and history repository. `priority` is
  /// the workflow's weight under the session's contention policy. The
  /// planner must outlive the session's run.
  void launch(SimulationSession& session, sim::Time release,
              Completion done, double priority = 1.0);

 private:
  void start();  ///< release-time event: initial plan + subscriptions
  void evaluate(const std::string& reason, bool forced);
  void finish();

  const dag::Dag& dag_;
  const grid::CostProvider& estimates_;
  const grid::CostProvider& actual_;
  const grid::ResourcePool& pool_;
  PlannerConfig config_;

  SimulationSession* session_ = nullptr;
  std::unique_ptr<ExecutionEngine> engine_;
  sim::Time release_ = sim::kTimeZero;
  double priority_ = 1.0;
  Completion done_;
  bool completed_ = false;

  sim::Time predicted_makespan_ = sim::kTimeZero;
  StrategyOutcome result_;
};

}  // namespace aheft::core

#endif  // AHEFT_CORE_PLANNER_H_
