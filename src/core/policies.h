// Tunable policies of the (re)scheduler. Every knob here is exercised by an
// ablation bench (EXP-A1).
#ifndef AHEFT_CORE_POLICIES_H_
#define AHEFT_CORE_POLICIES_H_

#include <cstddef>

#include "sim/time.h"

namespace aheft::core {

/// How a job is placed on a resource's timeline.
///  - kInsertion: classic HEFT insertion-based policy — the job may fill an
///    idle gap between already-placed jobs (Topcuoglu et al. [19]).
///  - kEndOfQueue: the job goes after the last placed job (a literal
///    reading of the paper's avail[j] in Eq. 2).
enum class SlotPolicy { kInsertion, kEndOfQueue };

/// What rescheduling may do to jobs that are mid-execution at `clock`.
///  - kKeepRunning: running jobs are pinned to their slots; only
///    not-started jobs move. This matches the paper's worked example —
///    in Fig. 5(b) job n3 keeps its r3 slot across the t=15 reschedule —
///    and wastes no work, so it is the default.
///  - kRestartable: cancel and restart from scratch elsewhere (no
///    checkpoint). Kept as an ablation knob.
enum class RunningJobPolicy { kRestartable, kKeepRunning };

/// When may the output of an already-finished job start moving toward a
/// resource it was never scheduled to reach?
///  - kRetransmitFromClock: a literal reading of Eq. 1 Case 2 — "the file
///    transmission can not be earlier than clock", so a moved consumer
///    waits clock + c. Physically conservative.
///  - kPrestagedArrivals: outputs are replicated toward every resource as
///    soon as they exist, and a joining resource syncs with the grid's
///    data fabric as part of joining, so files produced earlier are
///    available max(AFT + c, arrival) — i.e. a copy effectively left at
///    production time. This is the reading implied by the paper's
///    published numbers: the Fig. 5(b) schedule has n5's input landing on
///    r4 at t = 20 = AFT + c although r4 joined at 15, and Table 3's large
///    high-CCR gains require migrations that do not pay a full
///    post-arrival transfer.
enum class TransferPolicy { kRetransmitFromClock, kPrestagedArrivals };

/// When a finished job's output that was never sent to a machine moves
/// there: the copy leaves at `start` and lands at `arrival`.
struct TransferWindow {
  sim::Time start = sim::kTimeZero;
  sim::Time arrival = sim::kTimeZero;
};

/// The one statement of each TransferPolicy: the window of a transfer
/// asked for at `now`, of an output produced at `produced`, taking `cost`
/// to a machine that joined the grid at `target_arrival`. The executor
/// prices such a move through here, and so does the planner's Eq. 1 Case
/// 2, once per edge for a machine that was always there
/// (`target_arrival` = -infinity); the EFT search then takes the max with
/// each candidate's arrival under kPrestagedArrivals.
[[nodiscard]] TransferWindow transfer_window(TransferPolicy policy,
                                             sim::Time now,
                                             sim::Time produced,
                                             sim::Time target_arrival,
                                             double cost);

/// Relative rank gap under which two adjacent jobs count as near-tied
/// for SchedulerConfig::order_candidates.
inline constexpr double kRankTieFraction = 0.05;

/// Scheduler configuration shared by HEFT and AHEFT.
struct SchedulerConfig {
  SlotPolicy slot_policy = SlotPolicy::kInsertion;
  RunningJobPolicy running_policy = RunningJobPolicy::kKeepRunning;
  /// Minimum relative makespan improvement for a reschedule to be adopted
  /// (paper Fig. 2 line 7 uses strict improvement, i.e. 0).
  double adoption_threshold = 0.0;
  /// Order exploration: in addition to the canonical non-increasing
  /// upward-rank order, try up to this many alternative orders obtained by
  /// swapping adjacent jobs whose ranks are within kRankTieFraction of
  /// each other, and keep the best schedule. 0 = pure HEFT greedy (used
  /// for the large sweeps); a small value reproduces the paper's Fig. 5(b)
  /// schedule, which improves on strict rank order by one near-tie swap.
  std::size_t order_candidates = 0;
  /// File-movement model shared by the planner's FEA (Eq. 1 Case 2) and
  /// the executor. Defaults to the paper's literal Eq. 1 constraint; the
  /// optimistic models are ablation knobs (see README "Deviations from
  /// the paper" for why the paper's own numbers imply one of them).
  TransferPolicy transfer_policy = TransferPolicy::kRetransmitFromClock;
};

}  // namespace aheft::core

#endif  // AHEFT_CORE_POLICIES_H_
