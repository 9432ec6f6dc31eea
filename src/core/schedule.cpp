#include "core/schedule.h"

#include <algorithm>
#include <sstream>

#include "support/assert.h"
#include "support/table.h"

namespace aheft::core {

namespace {

const std::vector<Assignment> kEmptyTimeline;

bool overlaps(sim::Time a_start, sim::Time a_end, sim::Time b_start,
              sim::Time b_end) {
  // Half-open intervals; touching endpoints do not overlap. A small
  // tolerance forgives floating-point dust from summed costs.
  return a_start < b_end - sim::kTimeEpsilon &&
         b_start < a_end - sim::kTimeEpsilon;
}

}  // namespace

Schedule::Schedule(std::size_t job_count) : by_job_(job_count) {}

void Schedule::assign(const Assignment& assignment) {
  AHEFT_REQUIRE(assignment.job < by_job_.size(), "job id out of range");
  AHEFT_REQUIRE(assignment.resource != grid::kInvalidResource,
                "assignment must name a resource");
  AHEFT_REQUIRE(sim::time_le(assignment.start, assignment.finish),
                "assignment finishes before it starts");
  AHEFT_REQUIRE(!by_job_[assignment.job].has_value(),
                "job is already assigned");

  auto& slots = by_resource_[assignment.resource];
  for (const Assignment& other : slots) {
    AHEFT_REQUIRE(
        !overlaps(assignment.start, assignment.finish, other.start,
                  other.finish),
        "slot overlaps an existing assignment on the same resource");
  }
  const auto insert_at = std::upper_bound(
      slots.begin(), slots.end(), assignment,
      [](const Assignment& a, const Assignment& b) { return a.start < b.start; });
  slots.insert(insert_at, assignment);
  by_job_[assignment.job] = assignment;
  ++assigned_;
}

void Schedule::unassign(dag::JobId job) {
  const Assignment& slot = assignment(job);
  const auto line = by_resource_.find(slot.resource);
  std::vector<Assignment>& slots = line->second;
  slots.erase(std::find_if(
      slots.begin(), slots.end(),
      [job](const Assignment& a) { return a.job == job; }));
  if (slots.empty()) {
    by_resource_.erase(line);  // a resource without slots has no timeline
  }
  by_job_[job].reset();
  --assigned_;
}

bool Schedule::assigned(dag::JobId job) const {
  AHEFT_REQUIRE(job < by_job_.size(), "job id out of range");
  return by_job_[job].has_value();
}

const Assignment& Schedule::assignment(dag::JobId job) const {
  AHEFT_REQUIRE(job < by_job_.size(), "job id out of range");
  AHEFT_REQUIRE(by_job_[job].has_value(), "job is not assigned");
  return *by_job_[job];
}

const std::optional<Assignment>& Schedule::maybe_assignment(
    dag::JobId job) const {
  AHEFT_REQUIRE(job < by_job_.size(), "job id out of range");
  return by_job_[job];
}

const std::vector<Assignment>& Schedule::timeline(
    grid::ResourceId resource) const {
  const auto it = by_resource_.find(resource);
  return it == by_resource_.end() ? kEmptyTimeline : it->second;
}

std::vector<grid::ResourceId> Schedule::used_resources() const {
  std::vector<grid::ResourceId> out;
  for (const auto& [resource, slots] : by_resource_) {
    if (!slots.empty()) {
      out.push_back(resource);
    }
  }
  return out;
}

sim::Time Schedule::makespan() const {
  sim::Time result = sim::kTimeZero;
  for (const auto& assignment : by_job_) {
    if (assignment) {
      result = std::max(result, assignment->finish);
    }
  }
  return result;
}

sim::Time Schedule::earliest_slot(grid::ResourceId resource, sim::Time ready,
                                  sim::Time duration, SlotPolicy policy,
                                  sim::Time not_before, sim::Time deadline,
                                  const AvailabilityView* foreign) const {
  AHEFT_REQUIRE(duration >= 0.0, "duration must be non-negative");
  sim::Time candidate = std::max(ready, not_before);
  const auto it = by_resource_.find(resource);
  // Two monotone push-forward passes — own slots, then foreign busy
  // intervals — iterated to a fixed point: sliding past a foreign window
  // may land the candidate inside a later own slot and vice versa. Each
  // round either stabilizes or strictly advances past an interval
  // endpoint, of which there are finitely many, so the loop terminates.
  // With no foreign view the first pass is already the fixed point and
  // the search is bit-identical to the historical one.
  for (;;) {
    sim::Time advanced = candidate;
    if (it != by_resource_.end()) {
      if (policy == SlotPolicy::kEndOfQueue) {
        for (const Assignment& slot : it->second) {
          advanced = std::max(advanced, slot.finish);
        }
      } else {
        for (const Assignment& slot : it->second) {
          if (advanced + duration <= slot.start + sim::kTimeEpsilon) {
            break;  // fits in the gap before this slot
          }
          advanced = std::max(advanced, slot.finish);
        }
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
  for (const auto& [resource, slots] : by_resource_) {
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
