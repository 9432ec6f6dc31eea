// The Executor (paper Fig. 1): enacts a schedule on the simulated grid.
//
// Semantics (paper §4.1): a job starts once (a) every input file has
// arrived on its resource, (b) the previously scheduled job on that
// resource finished, and (c) the resource has joined the grid. When a job
// finishes, its outputs are pushed immediately to the resources its
// successors are scheduled on (static file-transfer model). File transfers
// consume time but no compute.
//
// submit() accepts both the initial schedule and mid-run replacements
// (the Planner's adopted reschedules). On replacement, running jobs that
// were replanned are cancelled and restarted, finished producers' outputs
// are retransmitted from the current time to any consumer that moved
// (mirroring FEA case 2), and per-resource queues are rebuilt.
//
// The engine always runs inside a SimulationSession (a single workflow is
// a one-participant session, which behaves identically under every
// contention policy): the simulator, pool, trace recorder, load profile,
// and resilience config come from the session's environment.
//
// Departures (the session's ResilienceConfig): a job its load-stretched
// duration cannot fit before a finite departure is handled by the
// config's DepartureAction — kError reports the scenario, kFail fails the
// workflow, kRequeue runs the job to the wall. A job that loses its
// machine mid-run (that wall, or a fair-share preemption) keeps only the
// work its checkpoints saved (see resilience/checkpoint_model.h) and
// requeues its remainder on another machine through the normal
// acquire/commit lifecycle. Every config runs this one path; the default
// (kError, no checkpoints, no preemption) simply never reaches a revoke.
#ifndef AHEFT_CORE_EXECUTION_ENGINE_H_
#define AHEFT_CORE_EXECUTION_ENGINE_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/outcome.h"
#include "core/schedule.h"
#include "core/session.h"
#include "core/snapshot.h"
#include "dag/dag.h"
#include "grid/cost_provider.h"
#include "grid/load_profile.h"
#include "grid/resource_pool.h"
#include "resilience/checkpoint_model.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace aheft::core {

class ExecutionEngine : public SessionParticipant {
 public:
  /// `actual` is the ground-truth cost model (run times and transfer
  /// durations the simulated grid really exhibits). Simulator, pool,
  /// trace, load profile, and resilience config all come from the
  /// session's environment, and the engine registers itself for
  /// cross-workflow resource contention with `priority` (must be
  /// positive) as its weight under the session's contention policy. The
  /// session must outlive the engine's execution.
  ExecutionEngine(SimulationSession& session, const dag::Dag& dag,
                  const grid::CostProvider& actual, double priority = 1.0);

  /// Installs `schedule` (complete over all jobs) at the current simulation
  /// time. The first call starts execution; later calls replace the
  /// remaining work. Taken by value: callers that are done with their plan
  /// move it in.
  void submit(Schedule schedule);

  [[nodiscard]] bool finished() const {
    return record_.finished_count() == dag_->job_count();
  }
  [[nodiscard]] sim::Time makespan() const { return makespan_; }
  /// The engine's share of the run's counters: `restarts` (running jobs
  /// cancelled and restarted by reschedules) and the resilience
  /// accounting — revocations absorbed and nominal machine-seconds of
  /// useful, lost, and checkpoint work. "Useful" work counted toward a
  /// completion or survived in a checkpoint image; "lost" work is
  /// redone.
  [[nodiscard]] const RunCounters& counters() const { return counters_; }

  /// Whether the workflow failed terminally (departure under kFail, the
  /// per-job revocation cap, or no machine left to requeue on). A failed
  /// engine never reaches finished(); its queues are drained and its
  /// running work truncated.
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] const std::string& failure_reason() const {
    return failure_reason_;
  }
  /// Callback fired exactly once when the workflow fails terminally.
  using FailureHook = std::function<void(const std::string&)>;
  void set_failure_hook(FailureHook hook) {
    failure_hook_ = std::move(hook);
  }

  [[nodiscard]] const Schedule& current_schedule() const;

  /// The engine's execution record, stamped with the current simulation
  /// time, in the form the Planner's rescheduler consumes. The engine
  /// updates the record in place, so the reference is valid until the
  /// engine's next event; copy the snapshot to keep it.
  [[nodiscard]] const ExecutionSnapshot& snapshot();

  /// Callback fired after each job completion (the Performance Monitor's
  /// feed, Fig. 1): (job, resource, actual start, actual finish).
  using CompletionHook =
      std::function<void(dag::JobId, grid::ResourceId, sim::Time, sim::Time)>;
  void set_completion_hook(CompletionHook hook) { hook_ = std::move(hook); }

  /// File-movement model; must match the planner's (see TransferPolicy).
  void set_transfer_policy(TransferPolicy policy) {
    transfer_policy_ = policy;
  }

  // SessionParticipant: a competing reservation on `resource` committed,
  // withdrew, or was truncated, so this engine's deferred grant may have
  // moved earlier. This is the per-resource ledger wakeup: only engines
  // actually queued on the resource receive it.
  void contention_changed(grid::ResourceId resource) override;
  // SessionParticipant: the first submitted schedule's makespan — the
  // workflow's uncontended scale for fair-share stretch normalization
  // (later reschedules fold contention delays in, which must not dilute
  // the workflow's own stretch).
  [[nodiscard]] sim::Time planned_finish() const override {
    return initial_plan_makespan_;
  }
  // SessionParticipant: fair-share preemption chose this engine's running
  // job `tag` on `resource` as its victim. The job keeps its checkpointed
  // floor progress, its ledger window is truncated (wait baseline
  // carried), and its remainder requeues elsewhere. Declines (returns
  // false) when the job is not actually running there anymore — e.g. it
  // completes in this very instant.
  bool revoke_committed(grid::ResourceId resource, std::uint64_t tag) override;

 private:
  /// One machine's share of the schedule: the pending jobs queued on it
  /// in planned start order (requeued jobs appended), the scan position,
  /// and the time of the armed retry pump (0 when none).
  struct ResourceQueue {
    std::vector<dag::JobId> jobs;
    std::size_t pos = 0;
    sim::Time pending_pump = 0;
  };

  /// A run segment's composition on one machine, in nominal units (wall
  /// clock = nominal * load factor).
  struct Segment {
    double work = 0.0;       ///< useful work the segment attempts
    double debt = 0.0;       ///< restart read cost paid up front
    double occupancy = 0.0;  ///< the work plus its checkpoint writes
    /// Machine time the whole segment takes: debt, then the occupancy.
    [[nodiscard]] double duration() const { return debt + occupancy; }
  };

  /// A job's running-segment accounting; its phase, resource, start and
  /// (projected) finish live in the shared record_.
  struct JobState {
    sim::EventId completion = 0;
    // The running segment, fixed at start. Interruption accounting
    // decomposes the elapsed occupancy against it.
    double load_factor = 1.0;
    Segment segment;
  };

  void rebuild_queues();
  void pump(grid::ResourceId resource);
  [[nodiscard]] JobPhase phase(dag::JobId job) const {
    return record_.record(job).phase;
  }
  /// Stops running `job` at `at` (its completion event already
  /// cancelled, or its machine's wall reached): accounts the interrupted
  /// segment, traces the compute it did, and returns it to pending. The
  /// caller handles the ledger window and its own counter.
  void stop_running(dag::JobId job, sim::Time at);
  /// Launches the transfer of edge `e`'s payload toward `target` at `when`
  /// if it is not already there or in flight; returns the arrival time.
  sim::Time ensure_transfer(std::size_t edge_index, grid::ResourceId target,
                            sim::Time when);
  /// Starts `job` on `resource` now; a start that cannot finish before the
  /// machine departs goes by the config's DepartureAction (throw, fail,
  /// run to the wall, or requeue off a machine already gone).
  /// Returns false when the engine's queues were restructured (the caller
  /// must abandon its queue scan and, unless the workflow failed, rescan
  /// the resource in a fresh event).
  bool start_job(dag::JobId job, grid::ResourceId resource);
  void complete_job(dag::JobId job);
  /// A running job's machine departed under it (DepartureAction::kRequeue
  /// ran it to the wall): salvage checkpointed progress and requeue.
  void hit_departure(dag::JobId job);
  /// Splits the elapsed occupancy of `job`'s running segment at `at` into
  /// retained / overhead / lost work, updating the accounting counters,
  /// the job's completed fraction, and its restart debt.
  void account_interrupted_segment(dag::JobId job, sim::Time at);
  /// Routes a revoked job's remainder back through the lifecycle: checks
  /// the per-job revocation cap, picks a target machine, rewrites the
  /// schedule slot, retransmits inputs, and pumps the target's queue.
  void requeue_job(dag::JobId job, sim::Time now);
  /// Machine whose requeued remainder finishes earliest under the current
  /// contention picture; machines it cannot finish on before departure
  /// only qualify as a latest-departure fallback (salvaging further
  /// checkpoints there beats failing). kInvalidResource when no machine
  /// is left at all.
  [[nodiscard]] grid::ResourceId choose_requeue_target(dag::JobId job,
                                                       sim::Time now) const;
  /// Moves `job`'s schedule slot onto `target` after that timeline's
  /// planned work (the other slots are untouched).
  void reassign(dag::JobId job, grid::ResourceId target, sim::Time now);
  /// Terminal failure: truncates running work, drains the queues, and
  /// fires the failure hook once.
  void fail_workflow(const std::string& reason);
  /// The segment `job` would run next on `resource`: its remaining work
  /// at that machine's cost (one cost query), any restart read debt, and
  /// the checkpoint-interleaved occupancy.
  [[nodiscard]] Segment next_segment(dag::JobId job,
                                     grid::ResourceId resource) const;

  sim::Simulator* simulator_;
  const dag::Dag* dag_;
  const grid::CostProvider* actual_;
  const grid::ResourcePool* pool_;
  sim::TraceRecorder* trace_;
  /// Time-varying effective cost scaling: a job started at time t on
  /// resource j realizes compute_cost(i, j) * load->factor(j, t). Null
  /// means nominal costs.
  const grid::LoadProfile* load_;
  SimulationSession* session_;

  Schedule schedule_;
  bool has_schedule_ = false;
  /// Phase, placement and times of every job, plus every edge's
  /// arrivals: the execution record snapshot() hands to the planner.
  ExecutionSnapshot record_;
  std::vector<JobState> jobs_;
  /// Fraction of each job's total work persisted by checkpoints. Kept as
  /// a fraction (not absolute units) because compute costs differ per
  /// machine: a requeue realizes the remaining fraction at the new
  /// machine's own cost. Both tables stay zero without checkpoints, so
  /// they are sized only when the session's checkpoint model is enabled.
  std::vector<double> done_frac_;
  /// Checkpoint read cost owed when each job next starts (a prior image
  /// exists); cleared once paid.
  std::vector<double> restart_debt_;
  /// The machines this engine queues work on. When its own running work
  /// frees a machine is the ledger's to know: acquire and peek apply it.
  std::map<grid::ResourceId, ResourceQueue> queues_;
  RunCounters counters_;
  bool failed_ = false;
  std::string failure_reason_;
  sim::Time makespan_ = sim::kTimeZero;
  sim::Time initial_plan_makespan_ = sim::kTimeZero;
  CompletionHook hook_;
  FailureHook failure_hook_;
  TransferPolicy transfer_policy_ = TransferPolicy::kRetransmitFromClock;
};

}  // namespace aheft::core

#endif  // AHEFT_CORE_EXECUTION_ENGINE_H_
