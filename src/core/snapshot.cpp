#include "core/snapshot.h"

#include <algorithm>

#include "support/assert.h"

namespace aheft::core {

ExecutionSnapshot ExecutionSnapshot::initial(std::size_t job_count,
                                             std::size_t edge_count) {
  return ExecutionSnapshot(sim::kTimeZero, job_count, edge_count);
}

ExecutionSnapshot::ExecutionSnapshot(sim::Time clock, std::size_t job_count,
                                     std::size_t edge_count)
    : jobs_(job_count), arrivals_(edge_count) {
  set_clock(clock);
}

void ExecutionSnapshot::set_clock(sim::Time clock) {
  AHEFT_REQUIRE(clock >= 0.0, "clock must be non-negative");
  clock_ = clock;
}

void ExecutionSnapshot::add_running(RunningInfo info) {
  AHEFT_REQUIRE(info.job < jobs_.size(), "job id out of range");
  JobRecord& job = jobs_[info.job];
  AHEFT_REQUIRE(job.phase == JobPhase::kPending,
                "job is already running or finished");
  job = JobRecord{info.resource, JobPhase::kRunning, info.ast,
                  info.expected_finish};
}

void ExecutionSnapshot::mark_finished(dag::JobId job, FinishedInfo info) {
  AHEFT_REQUIRE(job < jobs_.size(), "job id out of range");
  AHEFT_REQUIRE(jobs_[job].phase != JobPhase::kFinished, "job finished twice");
  AHEFT_REQUIRE(sim::time_le(info.aft, clock_),
                "job finished in the snapshot's future");
  jobs_[job] = JobRecord{info.resource, JobPhase::kFinished, info.ast,
                         info.aft};
  ++finished_count_;
}

void ExecutionSnapshot::mark_pending(dag::JobId job) {
  AHEFT_REQUIRE(job < jobs_.size(), "job id out of range");
  AHEFT_REQUIRE(jobs_[job].phase == JobPhase::kRunning,
                "only a running job can return to pending");
  jobs_[job] = JobRecord{};
}

void ExecutionSnapshot::record_arrival(std::size_t edge_index,
                                       grid::ResourceId resource,
                                       sim::Time when) {
  AHEFT_REQUIRE(edge_index < arrivals_.size(), "edge index out of range");
  AHEFT_REQUIRE(resource != grid::kInvalidResource,
                "arrival must name a resource");
  Arrival* known = &arrivals_[edge_index];
  if (known->resource == grid::kInvalidResource) {
    known->resource = resource;
    known->when = when;
    return;
  }
  for (;;) {
    if (known->resource == resource) {
      known->when = std::min(known->when, when);
      return;
    }
    if (known->next == kNoArrival) {
      break;
    }
    known = &overflow_[known->next];
  }
  AHEFT_REQUIRE(overflow_.size() < kNoArrival, "too many arrivals");
  // Link before appending: the append may move overflow_ under `known`.
  known->next = static_cast<std::uint32_t>(overflow_.size());
  overflow_.push_back(Arrival{resource, kNoArrival, when});
}

FinishedInfo ExecutionSnapshot::finished_info(dag::JobId job) const {
  AHEFT_REQUIRE(finished(job), "job has not finished");
  const JobRecord& r = jobs_[job];
  return FinishedInfo{r.resource, r.ast, r.aft};
}

std::vector<RunningInfo> ExecutionSnapshot::running() const {
  std::vector<RunningInfo> result;
  for (dag::JobId i = 0; i < jobs_.size(); ++i) {
    if (const auto info = running_info(i)) {
      result.push_back(*info);
    }
  }
  return result;
}

std::optional<RunningInfo> ExecutionSnapshot::running_info(
    dag::JobId job) const {
  const JobRecord& r = record(job);
  if (r.phase != JobPhase::kRunning) {
    return std::nullopt;
  }
  return RunningInfo{job, r.resource, r.ast, r.aft};
}

}  // namespace aheft::core
