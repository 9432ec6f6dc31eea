// AHEFT: the HEFT-based adaptive rescheduling algorithm (paper §3.4).
//
// One routine covers both uses in the paper:
//  * initial scheduling — clock 0, empty snapshot — where AHEFT "is
//    identical to HEFT [19]";
//  * rescheduling of the remaining jobs at clock > 0 with a partially
//    executed schedule S0, using Eq. 1 (FEA), Eq. 2 (EST) and Eq. 3 (EFT).
#ifndef AHEFT_CORE_RESCHEDULER_H_
#define AHEFT_CORE_RESCHEDULER_H_

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

/// The earliest time n_m's output can feed n_i on resource r (Eq. 1).
/// Exposed for unit tests; `new_schedule` is the S1 under construction
/// (already holding n_m for unfinished predecessors).
[[nodiscard]] sim::Time file_available(const RescheduleRequest& request,
                                       std::size_t edge_index,
                                       grid::ResourceId target,
                                       const Schedule& new_schedule);

/// One in-edge of the job being placed, resolved once per job: the
/// producer's finish time and resource, and — when it finished before the
/// clock — where S0 already sent its output. Only the transfer cost of
/// Eq. 1 still depends on the candidate resource.
struct ResolvedInput {
  const dag::Edge* edge = nullptr;
  std::size_t edge_index = 0;
  /// The snapshot holding the finished producer's arrivals (S0's
  /// transfers); null while the producer is pinned running or placed in
  /// S1.
  const ExecutionSnapshot* arrivals = nullptr;
  grid::ResourceId from = grid::kInvalidResource;
  sim::Time finish = sim::kTimeZero;  ///< AFT, or SFT in S1
};

/// The EFT search of Fig. 3 (Eq. 1–3) for one job at a time, shared by
/// the HEFT and AHEFT passes and their fallbacks. `resolve` reads the job's
/// inputs off `new_schedule` once; `best` then prices only their transfers
/// per candidate, latest producer first, and rules a candidate out as soon
/// as its finish bound max(ready, not_before) + w either passes its
/// departure wall (departure + kTimeEpsilon, the bound earliest_slot
/// tests) or reaches the best EFT so far, where `ready` starts at the
/// latest placed predecessor's finish and grows with each priced input.
/// The test runs before the first input is priced and after each one. It
/// is exact: transfer costs are >= 0 and the slot starts no earlier than
/// max(ready, not_before), so a walled candidate would get no slot, and a
/// beaten one could not win, since a candidate wins only on a strictly
/// smaller EFT. `longest_surviving`, the fallback when nothing fits,
/// skips a machine whose departure is below the best so far and not
/// time_eq to it before pricing anything: such a machine can never
/// replace the best. A machine time_eq to the best's departure still
/// competes on finish — time_eq holds between any finite departure and an
/// infinite one.
class EftSearch {
 public:
  /// Both references must outlive the search; `new_schedule` is the S1
  /// the caller keeps assigning into between jobs.
  EftSearch(const RescheduleRequest& request, const Schedule& new_schedule);

  /// Resolves `job`'s in-edges. Every unfinished predecessor must already
  /// be in `new_schedule` (rank order guarantees it).
  void resolve(dag::JobId job);

  /// The EFT-minimising slot for the resolved job over `candidates`, in
  /// their order (near-equal EFTs keep the earlier candidate), fitted to
  /// each machine's window and to `availability`'s free gaps when set.
  /// Nullopt when no candidate fits.
  [[nodiscard]] std::optional<Assignment> best(
      std::span<const grid::ResourceId> candidates,
      const AvailabilityView* availability) const;

  /// The fallback when no candidate fits: the resolved job on the
  /// candidate that departs last, ignoring its wall and `availability`.
  /// A later departure wins outright; one time_eq to the best's wins only
  /// on a strictly earlier finish. Nullopt only when `candidates` is
  /// empty.
  [[nodiscard]] std::optional<Assignment> longest_surviving(
      std::span<const grid::ResourceId> candidates) const;

 private:
  const RescheduleRequest& request_;
  const Schedule& new_schedule_;
  dag::JobId job_ = dag::kInvalidJob;
  std::vector<ResolvedInput> inputs_;
  /// Latest finish of a placed (not finished) predecessor: no candidate's
  /// ready time is earlier.
  sim::Time placed_ready_ = sim::kTimeZero;
};

}  // namespace aheft::core

#endif  // AHEFT_CORE_RESCHEDULER_H_
