// Execution snapshot: everything the Planner needs to know about the state
// of a partially executed workflow at rescheduling time `clock`.
//
// The snapshot realizes the paper's "execution status snapshot of S0"
// (Fig. 2 line 6): which jobs finished where and when (AFT), which jobs are
// running, and where every finished job's output files are available
// (feeding Eq. 1's FEA cases).
//
// The ExecutionEngine owns one snapshot as its execution record and keeps
// it current in place as jobs start, finish, are revoked, and as files are
// sent; ExecutionEngine::snapshot() stamps it with the clock and hands out
// a reference. That reference is valid until the engine's next event: copy
// the snapshot to keep a moment.
#ifndef AHEFT_CORE_SNAPSHOT_H_
#define AHEFT_CORE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "dag/dag.h"
#include "grid/resource.h"
#include "sim/time.h"
#include "support/assert.h"

namespace aheft::core {

/// A finished job: actual start/finish and the resource it ran on.
struct FinishedInfo {
  grid::ResourceId resource = grid::kInvalidResource;
  sim::Time ast = sim::kTimeZero;  ///< actual start time
  sim::Time aft = sim::kTimeZero;  ///< actual finish time
};

/// A job that started but did not finish by `clock`.
struct RunningInfo {
  dag::JobId job = dag::kInvalidJob;
  grid::ResourceId resource = grid::kInvalidResource;
  sim::Time ast = sim::kTimeZero;
  /// Finish time the executor currently expects (actual duration; under the
  /// paper's accuracy assumption this equals the planner's SFT).
  sim::Time expected_finish = sim::kTimeZero;
};

enum class JobPhase : std::uint8_t { kPending, kRunning, kFinished };

/// One job's execution record. `resource`, `ast` and `aft` are meaningful
/// once the job left kPending; while it runs, `aft` is its expected finish.
struct JobRecord {
  grid::ResourceId resource = grid::kInvalidResource;
  JobPhase phase = JobPhase::kPending;
  sim::Time ast = sim::kTimeZero;
  sim::Time aft = sim::kTimeZero;
};

/// Where the payload of each DAG edge is (or will be) available: for edge
/// e = (m, i), arrivals[e] maps resource -> earliest availability time of
/// n_m's output for n_i on that resource. Populated once the producer
/// finishes: its own resource at AFT, plus every target a transfer was
/// initiated to (at AFT + c). This is the ground truth behind FEA cases 1,
/// 2, and "otherwise".
using EdgeArrivals = std::vector<std::map<grid::ResourceId, sim::Time>>;

class ExecutionSnapshot {
 public:
  /// Snapshot of a workflow that has not started (clock 0, nothing done).
  static ExecutionSnapshot initial(std::size_t job_count,
                                   std::size_t edge_count);

  ExecutionSnapshot(sim::Time clock, std::size_t job_count,
                    std::size_t edge_count);

  [[nodiscard]] sim::Time clock() const { return clock_; }
  /// Moves the snapshot to `clock`; the record itself is unchanged.
  void set_clock(sim::Time clock);

  /// `info.job` started (or restarted) on `info.resource`.
  void add_running(RunningInfo info);
  void mark_finished(dag::JobId job, FinishedInfo info);
  /// A running job was cancelled or revoked: it is pending again.
  void mark_pending(dag::JobId job);
  /// Records `resource` at `when` for edge `edge_index`, keeping the
  /// earlier time when the resource is already known.
  void record_arrival(std::size_t edge_index, grid::ResourceId resource,
                      sim::Time when);

  [[nodiscard]] const JobRecord& record(dag::JobId job) const {
    AHEFT_REQUIRE(job < jobs_.size(), "job id out of range");
    return jobs_[job];
  }
  [[nodiscard]] bool finished(dag::JobId job) const {
    return record(job).phase == JobPhase::kFinished;
  }
  [[nodiscard]] FinishedInfo finished_info(dag::JobId job) const;
  /// The running jobs in job-id order, built on each call.
  [[nodiscard]] std::vector<RunningInfo> running() const;
  [[nodiscard]] std::optional<RunningInfo> running_info(dag::JobId job) const;

  [[nodiscard]] const std::map<grid::ResourceId, sim::Time>& arrivals(
      std::size_t edge_index) const {
    AHEFT_REQUIRE(edge_index < arrivals_.size(), "edge index out of range");
    return arrivals_[edge_index];
  }

  [[nodiscard]] std::size_t finished_count() const { return finished_count_; }
  [[nodiscard]] std::size_t job_count() const { return jobs_.size(); }

 private:
  sim::Time clock_ = sim::kTimeZero;
  std::vector<JobRecord> jobs_;
  EdgeArrivals arrivals_;
  std::size_t finished_count_ = 0;
};

}  // namespace aheft::core

#endif  // AHEFT_CORE_SNAPSHOT_H_
