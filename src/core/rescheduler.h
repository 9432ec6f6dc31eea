// AHEFT: the HEFT-based adaptive rescheduling algorithm (paper §3.4).
//
// One routine covers both uses in the paper:
//  * initial scheduling — clock 0, empty snapshot — where AHEFT "is
//    identical to HEFT [19]";
//  * rescheduling of the remaining jobs at clock > 0 with a partially
//    executed schedule S0, using Eq. 1 (FEA), Eq. 2 (EST) and Eq. 3 (EFT).
#ifndef AHEFT_CORE_RESCHEDULER_H_
#define AHEFT_CORE_RESCHEDULER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/policies.h"
#include "core/schedule.h"
#include "core/snapshot.h"
#include "dag/dag.h"
#include "grid/cost_provider.h"
#include "grid/resource_pool.h"

namespace aheft::core {

/// Inputs of one (re)scheduling pass: procedure schedule(S0, P, H) of the
/// paper's Fig. 3, where P is `estimates` over `resources` and S0 is
/// (`previous`, `snapshot`).
struct RescheduleRequest {
  const dag::Dag* dag = nullptr;
  const grid::CostProvider* estimates = nullptr;   ///< the matrix P
  const grid::ResourcePool* pool = nullptr;        ///< availability windows
  std::vector<grid::ResourceId> resources;         ///< visible set R at clock
  sim::Time clock = sim::kTimeZero;
  const ExecutionSnapshot* snapshot = nullptr;     ///< null => initial
  const Schedule* previous = nullptr;              ///< S0; null => initial
  SchedulerConfig config;
  /// Foreign machine load snapshotted from the session ledger (other
  /// workflows' committed windows and held claims): every EST search
  /// fits into the view's free gaps instead of assuming an empty grid.
  /// Null (the default) and an empty view are bit-identical to the
  /// historical contention-blind pass.
  const AvailabilityView* availability = nullptr;
  /// Re-pricing mode (requires `previous`): every unpinned job keeps the
  /// resource `previous` mapped it to and only its EST/EFT is
  /// recomputed — under `availability` when set. The contention-aware
  /// planner uses this to estimate "keep the current plan" and a fresh
  /// remap candidate against the same ledger snapshot, so the adoption
  /// comparison is like-for-like instead of fresh-candidate vs a
  /// prediction frozen under an older contention picture. A job whose
  /// kept resource became infeasible falls back to the full visible set.
  bool restrict_to_previous = false;
  /// When no visible machine can finish a job before its departure wall,
  /// plan the job anyway on the machine that survives the longest
  /// instead of failing the pass. Only meaningful under restart
  /// semantics (DepartureAction kFail/kRequeue): the executor treats the
  /// doomed slot as a failure the job does not foresee — it runs to the
  /// wall, salvages checkpointed progress, and requeues or fails the
  /// workflow as data. Off by default: a historical (kError) session
  /// must keep reporting infeasibility as an invariant violation.
  bool allow_infeasible = false;
};

/// Runs one AHEFT pass and returns the full-coverage schedule S1: finished
/// jobs keep their actual slots, running jobs are pinned or restarted per
/// the configured RunningJobPolicy, and all remaining jobs are mapped in
/// non-increasing upward-rank order onto the EFT-minimising resource.
/// S1.makespan() is therefore the predicted makespan of the whole workflow.
[[nodiscard]] Schedule aheft_schedule(const RescheduleRequest& request);

/// The EFT search of Fig. 3 (Eq. 1–3) for one job at a time, shared by
/// the HEFT and AHEFT passes and their fallbacks.
///
/// `resolve` prices each in-edge of the job once, through
/// mean_comm_cost: under the uniform link contract of CostProvider a
/// transfer costs 0 on the producer's machine and that one price c
/// everywhere else. From those prices it keeps enough for `ready` to give
/// any candidate's data-ready time (Eq. 2's inner max of Eq. 1) in O(1):
///  * placed producers (pinned running, or already in S1): the latest
///    finish, which a producer on the candidate itself contributes, and
///    the top two finish + c values from distinct producer machines — a
///    candidate takes the second only when it hosts the first;
///  * finished producers: per machine, the latest copy S0 recorded there,
///    and each input's value where it has no copy — clock + c under
///    kRetransmitFromClock, finish + c under kPrestagedArrivals — sorted
///    latest first. A candidate takes the first input without a copy on
///    it (and, under kPrestagedArrivals, no less than its own arrival).
/// Every step is a max over the doubles the per-candidate formula would
/// compare, so the result is bit-identical to it. A pass costs
/// O(inputs log inputs + recorded copies) per job plus O(1) per candidate.
///
/// `best` fetches the job's compute costs once per call and rules a
/// candidate out before its slot search when its finish bound
/// max(ready, not_before) + w either passes its departure wall
/// (departure + kTimeEpsilon, the bound earliest_slot tests) or reaches
/// the best EFT so far. The test is exact: the slot starts no earlier than
/// max(ready, not_before), so a walled candidate would get no slot, and a
/// beaten one could not win, since a candidate wins only on a strictly
/// smaller EFT. `longest_surviving`, the fallback when nothing fits, skips
/// a machine whose departure is below the best so far and not time_eq to
/// it: such a machine can never replace the best. A machine time_eq to the
/// best's departure still competes on finish — time_eq holds between any
/// finite departure and an infinite one.
class EftSearch {
 public:
  /// Both references must outlive the search; `new_schedule` is the S1
  /// the caller keeps assigning into between jobs. Reads every machine's
  /// window off the request's pool once.
  EftSearch(const RescheduleRequest& request, const Schedule& new_schedule);

  /// Resolves and prices `job`'s in-edges. Every unfinished predecessor
  /// must already be in `new_schedule` (rank order guarantees it), and a
  /// finished one must have a recorded copy on its own machine, as the
  /// executor records at completion.
  void resolve(dag::JobId job);

  /// The earliest time all of the resolved job's inputs can be on `r`:
  /// the max over its in-edges of Eq. 1's file availability.
  [[nodiscard]] sim::Time ready(grid::ResourceId r) const;

  /// The EFT-minimising slot for the resolved job over `candidates`, in
  /// their order (near-equal EFTs keep the earlier candidate), fitted to
  /// each machine's window and to `availability`'s free gaps when set.
  /// Nullopt when no candidate fits.
  [[nodiscard]] std::optional<Assignment> best(
      std::span<const grid::ResourceId> candidates,
      const AvailabilityView* availability);

  /// The fallback when no candidate fits: the resolved job on the
  /// candidate that departs last, ignoring its wall and `availability`.
  /// A later departure wins outright; one time_eq to the best's wins only
  /// on a strictly earlier finish. Nullopt only when `candidates` is
  /// empty.
  [[nodiscard]] std::optional<Assignment> longest_surviving(
      std::span<const grid::ResourceId> candidates) const;

 private:
  /// One machine's window, fixed for the whole pass.
  struct Window {
    sim::Time arrival = sim::kTimeZero;
    /// avail[j]: a machine is usable from its arrival, and never before
    /// the rescheduling clock.
    sim::Time not_before = sim::kTimeZero;
    sim::Time departure = sim::kTimeInfinity;
    sim::Time wall = sim::kTimeInfinity;  ///< departure + kTimeEpsilon
  };
  /// An in-edge whose producer finished before the clock.
  struct FinishedInput {
    sim::Time when = sim::kTimeZero;  ///< on a machine without a copy
    std::uint32_t edge = 0;
  };

  const RescheduleRequest& request_;
  const Schedule& new_schedule_;
  std::vector<Window> machines_;  ///< by ResourceId
  dag::JobId job_ = dag::kInvalidJob;
  /// Latest finish of a placed predecessor: no candidate's ready time is
  /// earlier.
  sim::Time placed_ready_ = sim::kTimeZero;
  /// The latest placed finish + c, its producer's machine, and the latest
  /// from any other machine.
  sim::Time top1_ = sim::kTimeZero;
  grid::ResourceId top1_machine_ = grid::kInvalidResource;
  sim::Time top2_ = sim::kTimeZero;
  std::vector<FinishedInput> finished_;  ///< latest `when` first
  /// By ResourceId: the latest recorded copy of a finished input there
  /// (-infinity: none), and how many leading finished_ entries have one.
  std::vector<sim::Time> recorded_;
  std::vector<std::uint32_t> copied_;
  std::vector<grid::ResourceId> touched_;  ///< machines to reset
  std::vector<double> compute_;  ///< best()'s compute costs
};

}  // namespace aheft::core

#endif  // AHEFT_CORE_RESCHEDULER_H_
