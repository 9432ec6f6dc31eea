// The one outcome record of a strategy run, shared by every layer.
//
// A workflow's counters are produced once (by the planner and its
// execution engine, or by the dynamic execution) and then move up the
// layers by value: the strategy driver hands the StrategyOutcome straight
// to its completion callback, a workflow stream folds its workflows'
// counters together with RunCounters::merge(), and the experiment layer
// extends the stream record instead of copying it field by field.
#ifndef AHEFT_CORE_OUTCOME_H_
#define AHEFT_CORE_OUTCOME_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "core/schedule.h"
#include "sim/time.h"

namespace aheft::core {

/// One evaluated event (a row of the planner's decision log).
struct AdoptionRecord {
  sim::Time time = sim::kTimeZero;
  std::string event;                        ///< what triggered evaluation
  sim::Time current_makespan = sim::kTimeZero;   ///< S0's predicted makespan
  sim::Time candidate_makespan = sim::kTimeZero; ///< S1's predicted makespan
  bool adopted = false;
  bool forced = false;  ///< adoption was mandatory (resource loss)
  /// Contention-aware passes only: the session clock at which the
  /// availability view feeding this evaluation was snapshotted. The
  /// planner's freshness contract is view_snapshot == time — every
  /// evaluation re-snapshots, never reuses an earlier picture. Negative
  /// when the pass ran contention-blind (no view was taken).
  sim::Time view_snapshot = -1.0;
};

/// Additive bookkeeping of one or more workflow runs.
struct RunCounters {
  std::size_t evaluations = 0;  ///< events evaluated (dynamic: batches)
  std::size_t adoptions = 0;    ///< reschedules submitted
  std::size_t restarts = 0;     ///< running jobs cancelled and restarted
  /// Cross-workflow machine wait imposed by the session's contention
  /// policy: total across the jobs, and the worst single acquisition.
  /// Zero for uncontended runs.
  double contention_wait = 0.0;
  double max_contention_wait = 0.0;
  /// Resilience accounting (planner strategies; the dynamic baseline has
  /// no restart machinery and reports zeros): jobs revoked mid-run, and
  /// nominal machine-seconds redone / spent on checkpoint traffic /
  /// retained as useful progress.
  std::size_t revoked_jobs = 0;
  double lost_work = 0.0;
  double checkpoint_overhead = 0.0;
  double useful_work = 0.0;

  /// Folds `other` in: every counter sums, except the worst single wait,
  /// which takes the max.
  void merge(const RunCounters& other) {
    evaluations += other.evaluations;
    adoptions += other.adoptions;
    restarts += other.restarts;
    contention_wait += other.contention_wait;
    max_contention_wait =
        std::max(max_contention_wait, other.max_contention_wait);
    revoked_jobs += other.revoked_jobs;
    lost_work += other.lost_work;
    checkpoint_overhead += other.checkpoint_overhead;
    useful_work += other.useful_work;
  }
};

/// Everything one simulated strategy run reports. `makespan` is the
/// absolute completion time on the session clock (for a workflow
/// released at t the duration is makespan - t).
struct StrategyOutcome : RunCounters {
  sim::Time makespan = sim::kTimeZero;
  /// The release-time plan's predicted makespan (planner strategies).
  sim::Time initial_makespan = sim::kTimeZero;
  /// The workflow failed terminally instead of completing; `makespan` is
  /// then the failure time. Only possible under an active resilience
  /// config (DepartureAction::kFail, the revocation cap, no machine left
  /// to requeue on, or a dynamic job no machine can finish).
  bool failed = false;
  std::string failure_reason;
  /// The last submitted plan (planners) or the realized placement
  /// (dynamic; partial when the run failed).
  Schedule schedule;
  /// The planner's decision log, one row per evaluated event.
  std::vector<AdoptionRecord> decisions;
};

}  // namespace aheft::core

#endif  // AHEFT_CORE_OUTCOME_H_
