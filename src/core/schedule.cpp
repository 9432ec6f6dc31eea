#include "core/schedule.h"

#include <algorithm>
#include <sstream>

#include "support/assert.h"
#include "support/table.h"

namespace aheft::core {

namespace {

bool overlaps(sim::Time a_start, sim::Time a_end, sim::Time b_start,
              sim::Time b_end) {
  // Half-open intervals; touching endpoints do not overlap. A small
  // tolerance forgives floating-point dust from summed costs.
  return a_start < b_end - sim::kTimeEpsilon &&
         b_start < a_end - sim::kTimeEpsilon;
}

/// Whether `slot` is longer than the overlap tolerance. An overlap scan
/// outward from an insert position may stop at such a slot: in a disjoint
/// timeline, no slot beyond it can reach the new one.
bool long_slot(const Assignment& slot) {
  return slot.finish - slot.start > sim::kTimeEpsilon;
}

}  // namespace

Schedule::Schedule(std::size_t job_count) : by_job_(job_count) {}

void Schedule::assign(const Assignment& assignment) {
  AHEFT_REQUIRE(assignment.job < by_job_.size(), "job id out of range");
  AHEFT_REQUIRE(assignment.resource != grid::kInvalidResource,
                "assignment must name a resource");
  AHEFT_REQUIRE(sim::time_le(assignment.start, assignment.finish),
                "assignment finishes before it starts");
  AHEFT_REQUIRE(!assigned(assignment.job), "job is already assigned");

  const std::size_t k = run_index(assignment.resource);
  const bool has_run =
      k < runs_.size() && runs_[k].resource == assignment.resource;
  const auto first = by_resource_.begin() +
                     static_cast<std::ptrdiff_t>(run_begin(k));
  const auto last =
      has_run ? by_resource_.begin() + runs_[k].end : first;
  // After every slot on the resource that starts no later.
  const auto insert_at = std::upper_bound(
      first, last, assignment.start, [this](sim::Time start, dag::JobId id) {
        return start < by_job_[id].start;
      });
  // The resource's slots are pairwise disjoint and sorted by start, so
  // only the neighbours can overlap the new slot, plus whatever lies
  // behind a neighbour no longer than the tolerance. `scan_past` checks
  // one slot and tells whether the scan must go on beyond it.
  const auto scan_past = [&](dag::JobId id) {
    const Assignment& other = by_job_[id];
    AHEFT_REQUIRE(
        !overlaps(assignment.start, assignment.finish, other.start,
                  other.finish),
        "slot overlaps an existing assignment on the same resource");
    return !long_slot(other);
  };
  for (auto left = insert_at; left != first;) {
    if (!scan_past(*--left)) {
      break;
    }
  }
  for (auto right = insert_at; right != last; ++right) {
    if (!scan_past(*right)) {
      break;
    }
  }

  if (!has_run) {
    runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(k),
                 Run{assignment.resource,
                     static_cast<std::uint32_t>(run_begin(k))});
  }
  by_resource_.insert(insert_at, assignment.job);
  for (std::size_t i = k; i < runs_.size(); ++i) {
    ++runs_[i].end;
  }
  by_job_[assignment.job] = assignment;
}

void Schedule::unassign(dag::JobId job) {
  AHEFT_REQUIRE(assigned(job), "job is not assigned");
  const std::size_t k = run_index(by_job_[job].resource);
  const auto first = by_resource_.begin() +
                     static_cast<std::ptrdiff_t>(run_begin(k));
  by_resource_.erase(
      std::find(first, by_resource_.begin() + runs_[k].end, job));
  for (std::size_t i = k; i < runs_.size(); ++i) {
    --runs_[i].end;
  }
  if (runs_[k].end == run_begin(k)) {
    // A resource without slots has no timeline.
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(k));
  }
  by_job_[job] = Assignment{};
}

bool Schedule::assigned(dag::JobId job) const {
  AHEFT_REQUIRE(job < by_job_.size(), "job id out of range");
  return by_job_[job].resource != grid::kInvalidResource;
}

const Assignment& Schedule::assignment(dag::JobId job) const {
  AHEFT_REQUIRE(assigned(job), "job is not assigned");
  return by_job_[job];
}

std::optional<Assignment> Schedule::maybe_assignment(dag::JobId job) const {
  if (!assigned(job)) {
    return std::nullopt;
  }
  return by_job_[job];
}

std::vector<grid::ResourceId> Schedule::used_resources() const {
  std::vector<grid::ResourceId> out;
  out.reserve(runs_.size());
  for (const Run& run : runs_) {
    out.push_back(run.resource);
  }
  return out;
}

sim::Time Schedule::makespan() const {
  sim::Time result = sim::kTimeZero;
  for (const dag::JobId id : by_resource_) {
    result = std::max(result, by_job_[id].finish);
  }
  return result;
}

sim::Time Schedule::earliest_slot(grid::ResourceId resource, sim::Time ready,
                                  sim::Time duration, SlotPolicy policy,
                                  sim::Time not_before, sim::Time deadline,
                                  const AvailabilityView* foreign) const {
  AHEFT_REQUIRE(duration >= 0.0, "duration must be non-negative");
  sim::Time candidate = std::max(ready, not_before);
  const auto slots = timeline(resource);
  // Two monotone push-forward passes — own slots, then foreign busy
  // intervals — iterated to a fixed point: sliding past a foreign window
  // may land the candidate inside a later own slot and vice versa. Each
  // round either stabilizes or strictly advances past an interval
  // endpoint, of which there are finitely many, so the loop terminates.
  // With no foreign view the first pass is already the fixed point and
  // the search is bit-identical to the historical one.
  for (;;) {
    sim::Time advanced = candidate;
    if (policy == SlotPolicy::kEndOfQueue) {
      for (const Assignment& slot : slots) {
        advanced = std::max(advanced, slot.finish);
      }
    } else {
      for (const Assignment& slot : slots) {
        if (advanced + duration <= slot.start + sim::kTimeEpsilon) {
          break;  // fits in the gap before this slot
        }
        advanced = std::max(advanced, slot.finish);
      }
    }
    if (foreign == nullptr) {
      // The own-slot pass alone is already its own fixed point; skip the
      // confirmation round so the contention-blind hot path stays one
      // scan per call.
      candidate = advanced;
      break;
    }
    advanced = foreign->earliest_fit(resource, advanced, duration);
    if (advanced == candidate) {
      break;
    }
    candidate = advanced;
  }
  if (candidate + duration > deadline + sim::kTimeEpsilon) {
    return sim::kTimeInfinity;
  }
  return candidate;
}

std::string Schedule::gantt(const dag::Dag& dag,
                            const grid::ResourcePool& pool) const {
  AsciiTable table({"resource", "timeline (job[start,finish))"});
  for (const grid::ResourceId resource : used_resources()) {
    const auto slots = timeline(resource);
    std::ostringstream row;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (i != 0) {
        row << "  ";
      }
      row << dag.job(slots[i].job).name << "["
          << format_double(slots[i].start, 1) << ","
          << format_double(slots[i].finish, 1) << ")";
    }
    table.add_row({pool.resource(resource).name, row.str()});
  }
  return table.to_string();
}

namespace {

void check_structure(const Schedule& schedule, const dag::Dag& dag,
                     const grid::CostProvider& costs,
                     const grid::ResourcePool& pool, bool with_comm) {
  AHEFT_ASSERT(schedule.job_count() == dag.job_count(),
               "schedule sized for a different DAG");
  for (dag::JobId i = 0; i < dag.job_count(); ++i) {
    AHEFT_ASSERT(schedule.assigned(i),
                 "job " + dag.job(i).name + " is unassigned");
    const Assignment& a = schedule.assignment(i);
    const grid::Resource& r = pool.resource(a.resource);
    AHEFT_ASSERT(sim::time_ge(a.start, r.arrival),
                 dag.job(i).name + " starts before resource " + r.name +
                     " arrives");
    AHEFT_ASSERT(sim::time_le(a.finish, r.departure),
                 dag.job(i).name + " finishes after resource " + r.name +
                     " departs");
    const double w = costs.compute_cost(i, a.resource);
    AHEFT_ASSERT(sim::time_eq(a.duration(), w),
                 dag.job(i).name + " duration does not match its cost");
  }
  // Per-resource slot disjointness (assign() enforces it incrementally;
  // re-check to guard against external construction paths).
  for (const grid::ResourceId r : schedule.used_resources()) {
    const auto& slots = schedule.timeline(r);
    for (std::size_t k = 1; k < slots.size(); ++k) {
      AHEFT_ASSERT(sim::time_le(slots[k - 1].finish, slots[k].start),
                   "overlapping slots on resource");
    }
  }
  for (std::size_t e = 0; e < dag.edge_count(); ++e) {
    const dag::Edge& edge = dag.edges()[e];
    const Assignment& from = schedule.assignment(edge.from);
    const Assignment& to = schedule.assignment(edge.to);
    sim::Time required = from.finish;
    if (with_comm) {
      required += costs.comm_cost(edge, from.resource, to.resource);
    }
    AHEFT_ASSERT(sim::time_ge(to.start, required),
                 dag.job(edge.to).name + " starts before its input from " +
                     dag.job(edge.from).name + " is available");
  }
}

}  // namespace

void validate_structure(const Schedule& schedule, const dag::Dag& dag,
                        const grid::CostProvider& costs,
                        const grid::ResourcePool& pool) {
  check_structure(schedule, dag, costs, pool, /*with_comm=*/false);
}

void validate_static(const Schedule& schedule, const dag::Dag& dag,
                     const grid::CostProvider& costs,
                     const grid::ResourcePool& pool) {
  check_structure(schedule, dag, costs, pool, /*with_comm=*/true);
}

}  // namespace aheft::core
