// Schedule representation: job → (resource, start, finish) with per-resource
// timelines and slot search.
//
// Each slot is stored once, in a job-indexed Assignment table. The
// per-resource timelines are one vector of job ids sorted by (resource,
// start), so a timeline is a contiguous run of ids; a small table sorted
// by resource id records where each run ends. A schedule holds no
// per-resource allocation.
#ifndef AHEFT_CORE_SCHEDULE_H_
#define AHEFT_CORE_SCHEDULE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "core/availability_view.h"
#include "core/policies.h"
#include "dag/dag.h"
#include "grid/cost_provider.h"
#include "grid/resource_pool.h"
#include "sim/time.h"

namespace aheft::core {

/// One scheduled job: the paper's (resource mapping, EST, SFT) triple.
struct Assignment {
  dag::JobId job = dag::kInvalidJob;
  grid::ResourceId resource = grid::kInvalidResource;
  sim::Time start = sim::kTimeZero;
  sim::Time finish = sim::kTimeZero;

  [[nodiscard]] sim::Time duration() const { return finish - start; }
};

/// A (partial) schedule for one DAG. Supports incremental construction in
/// heuristic order and gap queries for the insertion slot policy.
class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(std::size_t job_count);

  /// Places a job. The job must not already be assigned and the slot must
  /// not overlap existing slots on the same resource.
  void assign(const Assignment& assignment);

  /// Removes `job`'s slot from the job index and from its resource's
  /// timeline (the other slots keep their order); throws if unassigned.
  void unassign(dag::JobId job);

  [[nodiscard]] std::size_t job_count() const { return by_job_.size(); }
  [[nodiscard]] std::size_t assigned_count() const {
    return by_resource_.size();
  }
  [[nodiscard]] bool complete() const {
    return by_resource_.size() == by_job_.size();
  }

  [[nodiscard]] bool assigned(dag::JobId job) const;
  /// Assignment of `job`; throws if unassigned.
  [[nodiscard]] const Assignment& assignment(dag::JobId job) const;
  /// Assignment of `job`, or nullopt if unassigned.
  [[nodiscard]] std::optional<Assignment> maybe_assignment(
      dag::JobId job) const;

  /// Slots on `resource`, sorted by start time (equal starts in the order
  /// they were assigned): a random-access view over the resource's job
  /// ids that yields each job's Assignment. Valid until the schedule next
  /// changes.
  [[nodiscard]] auto timeline(grid::ResourceId resource) const {
    return timeline_ids(resource) |
           std::views::transform(
               [slots = by_job_.data()](dag::JobId id) -> const Assignment& {
                 return slots[id];
               });
  }

  /// Resources that hold at least one slot, ascending.
  [[nodiscard]] std::vector<grid::ResourceId> used_resources() const;

  /// Max finish time over all assignments (the paper's makespan, Eq. 4 —
  /// equal to max SFT over exit jobs for complete schedules).
  [[nodiscard]] sim::Time makespan() const;

  /// Earliest start >= max(ready, not_before) for a task of `duration` on
  /// `resource` under the given slot policy, and finishing by `deadline`
  /// (pass kTimeInfinity when the resource never departs). When `foreign`
  /// is non-null, the slot must additionally avoid the view's busy
  /// intervals (other workflows' committed windows and held claims): the
  /// search walks the free gaps of the merged picture — own slots and
  /// foreign load together — so contention-aware plans are gap-aware, not
  /// merely pushed to the busy horizon. A null or empty view leaves the
  /// result bit-identical to the view-less search. Returns kTimeInfinity
  /// when no feasible slot exists.
  [[nodiscard]] sim::Time earliest_slot(
      grid::ResourceId resource, sim::Time ready, sim::Time duration,
      SlotPolicy policy, sim::Time not_before, sim::Time deadline,
      const AvailabilityView* foreign = nullptr) const;

  /// Renders per-resource timelines as an ASCII Gantt chart.
  [[nodiscard]] std::string gantt(const dag::Dag& dag,
                                  const grid::ResourcePool& pool) const;

 private:
  /// One resource's run of by_resource_: the ids from the previous run's
  /// `end` (0 for the first run) up to its own.
  struct Run {
    grid::ResourceId resource = grid::kInvalidResource;
    std::uint32_t end = 0;
  };

  /// Index of the first run whose resource is not below `resource`.
  [[nodiscard]] std::size_t run_index(grid::ResourceId resource) const {
    const auto it = std::lower_bound(
        runs_.begin(), runs_.end(), resource,
        [](const Run& run, grid::ResourceId r) { return run.resource < r; });
    return static_cast<std::size_t>(it - runs_.begin());
  }
  /// Where run `k` starts in by_resource_ (the end for k == runs_.size()).
  [[nodiscard]] std::size_t run_begin(std::size_t k) const {
    return k == 0 ? 0 : runs_[k - 1].end;
  }
  /// The ids of `resource`'s run of by_resource_ (empty without slots).
  [[nodiscard]] std::span<const dag::JobId> timeline_ids(
      grid::ResourceId resource) const {
    const std::size_t k = run_index(resource);
    if (k == runs_.size() || runs_[k].resource != resource) {
      return {};
    }
    return std::span(by_resource_)
        .subspan(run_begin(k), runs_[k].end - run_begin(k));
  }

  /// Every job's slot; an unassigned job's slot names no resource.
  std::vector<Assignment> by_job_;
  /// The assigned jobs sorted by (resource, start), equal keys in
  /// assignment order: each resource's timeline is one contiguous run.
  std::vector<dag::JobId> by_resource_;
  /// The runs of by_resource_, one per resource holding a slot, sorted by
  /// resource id.
  std::vector<Run> runs_;
};

/// Structural validation: every job assigned exactly once, durations match
/// the actual cost model, per-resource slots disjoint, resource
/// availability windows respected, and start(n_i) >= finish(n_m) for every
/// edge (m, i). Throws aheft::AssertionError describing the first failure.
void validate_structure(const Schedule& schedule, const dag::Dag& dag,
                        const grid::CostProvider& costs,
                        const grid::ResourcePool& pool);

/// Static-semantics validation: validate_structure plus the communication
/// constraint start(n_i) >= finish(n_m) + c(e) for cross-resource edges.
/// Holds for schedules planned from scratch (clock == 0); rescheduled plans
/// may legally violate it (files may already sit on the target resource).
void validate_static(const Schedule& schedule, const dag::Dag& dag,
                     const grid::CostProvider& costs,
                     const grid::ResourcePool& pool);

}  // namespace aheft::core

#endif  // AHEFT_CORE_SCHEDULE_H_
