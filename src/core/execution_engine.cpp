#include "core/execution_engine.h"

#include <algorithm>
#include <stdexcept>

#include "support/assert.h"

namespace aheft::core {

ExecutionEngine::ExecutionEngine(SimulationSession& session,
                                 const dag::Dag& dag,
                                 const grid::CostProvider& actual,
                                 double priority)
    : simulator_(&session.simulator()),
      dag_(&dag),
      actual_(&actual),
      pool_(&session.pool()),
      trace_(session.trace()),
      load_(session.load()),
      session_(&session),
      record_(sim::kTimeZero, dag.job_count(), dag.edge_count()),
      jobs_(dag.job_count()) {
  AHEFT_REQUIRE(dag.finalized(), "DAG must be finalized");
  if (session.resilience().checkpoint.enabled) {
    done_frac_.assign(dag.job_count(), 0.0);
    restart_debt_.assign(dag.job_count(), 0.0);
  }
  session.add_participant(this, priority);
}

void ExecutionEngine::contention_changed(grid::ResourceId resource) {
  if (has_schedule_) {
    pump(resource);
  }
}

const Schedule& ExecutionEngine::current_schedule() const {
  AHEFT_REQUIRE(has_schedule_, "no schedule submitted yet");
  return schedule_;
}

void ExecutionEngine::stop_running(dag::JobId job, sim::Time at) {
  account_interrupted_segment(job, at);
  if (trace_ != nullptr) {
    const JobRecord& run = record_.record(job);
    trace_->record_compute(job, run.resource, run.ast, at);
  }
  record_.mark_pending(job);
  jobs_[job] = JobState{};
}

sim::Time ExecutionEngine::ensure_transfer(std::size_t edge_index,
                                           grid::ResourceId target,
                                           sim::Time when) {
  const dag::Edge& edge = dag_->edges()[edge_index];
  const JobRecord& producer = record_.record(edge.from);
  AHEFT_ASSERT(producer.phase == JobPhase::kFinished,
               "transfer initiated before producer finished");
  if (const auto known = record_.arrival(edge_index, target)) {
    return *known;  // already there or already in flight
  }
  const TransferWindow window = transfer_window(
      transfer_policy_, when, producer.aft, pool_->resource(target).arrival,
      actual_->comm_cost(edge, producer.resource, target));
  record_.record_arrival(edge_index, target, window.arrival);
  if (trace_ != nullptr && window.arrival > window.start) {
    trace_->record_transfer(edge.from, edge.to, target, window.start,
                            window.arrival);
  }
  return window.arrival;
}

void ExecutionEngine::submit(Schedule schedule) {
  AHEFT_REQUIRE(schedule.job_count() == dag_->job_count(),
                "schedule sized for a different DAG");
  AHEFT_REQUIRE(schedule.complete(), "submitted schedule must be complete");
  AHEFT_REQUIRE(!failed_, "schedule submitted to a failed workflow");
  const sim::Time now = simulator_->now();

  for (dag::JobId i = 0; i < dag_->job_count(); ++i) {
    const JobRecord& state = record_.record(i);
    const Assignment& next = schedule.assignment(i);
    switch (state.phase) {
      case JobPhase::kFinished:
        // A reschedule must keep completed work where it happened.
        AHEFT_ASSERT(next.resource == state.resource &&
                         sim::time_eq(next.finish, state.aft),
                     "reschedule rewrote history of a finished job");
        break;
      case JobPhase::kRunning: {
        const bool kept = next.resource == state.resource &&
                          sim::time_eq(next.start, state.ast);
        if (!kept) {
          // The planner replanned this running job: cancel and restart
          // (keeping only checkpointed progress, if any). The machine
          // frees now, so the ledger's committed reservation is truncated
          // to the cancellation instead of blocking competitors until the
          // cancelled job's projected finish.
          const bool cancelled = simulator_->cancel(jobs_[i].completion);
          AHEFT_ASSERT(cancelled, "running job had no completion event");
          session_->truncate_commit(this, state.resource, /*tag=*/i, now);
          stop_running(i, now);
          ++counters_.restarts;
        }
        break;
      }
      case JobPhase::kPending:
        break;
    }
  }

  if (!has_schedule_) {
    initial_plan_makespan_ = schedule.makespan();
  }
  schedule_ = std::move(schedule);
  has_schedule_ = true;

  // Retransmit outputs of finished producers toward consumers that moved
  // (FEA case 2: the copy cannot leave before `now`).
  for (std::size_t e = 0; e < dag_->edge_count(); ++e) {
    const dag::Edge& edge = dag_->edges()[e];
    if (phase(edge.from) != JobPhase::kFinished ||
        phase(edge.to) == JobPhase::kFinished) {
      continue;
    }
    ensure_transfer(e, schedule_.assignment(edge.to).resource, now);
  }

  rebuild_queues();
  // A pump can restructure or clear queues_ mid-loop (kFail tears the
  // whole map down, a requeue fails over), so iterate a snapshot of the
  // keys; pump() re-finds its queue and no-ops on vanished resources.
  std::vector<grid::ResourceId> to_pump;
  to_pump.reserve(queues_.size());
  for (const auto& [resource, queue] : queues_) {
    to_pump.push_back(resource);
  }
  for (const grid::ResourceId resource : to_pump) {
    pump(resource);
  }
}

void ExecutionEngine::rebuild_queues() {
  queues_.clear();
  // A reschedule may have moved the queue heads: drop the pending
  // acquisitions so stale requests cannot gate competing workflows; the
  // post-rebuild pumps re-register the live ones.
  session_->withdraw_all(this);
  for (dag::JobId i = 0; i < dag_->job_count(); ++i) {
    if (phase(i) == JobPhase::kPending) {
      queues_[schedule_.assignment(i).resource].jobs.push_back(i);
    }
  }
  for (auto& entry : queues_) {
    std::vector<dag::JobId>& jobs = entry.second.jobs;
    std::sort(jobs.begin(), jobs.end(), [this](dag::JobId a, dag::JobId b) {
      const Assignment& aa = schedule_.assignment(a);
      const Assignment& ab = schedule_.assignment(b);
      if (aa.start != ab.start) {
        return aa.start < ab.start;
      }
      return a < b;
    });
  }
}

void ExecutionEngine::pump(grid::ResourceId resource) {
  if (failed_) {
    return;
  }
  const auto queue_it = queues_.find(resource);
  if (queue_it == queues_.end()) {
    return;
  }
  ResourceQueue& queue = queue_it->second;
  std::size_t& pos = queue.pos;
  const sim::Time now = simulator_->now();

  while (pos < queue.jobs.size()) {
    const dag::JobId job = queue.jobs[pos];
    const JobPhase state = phase(job);
    if (state == JobPhase::kFinished ||
        schedule_.assignment(job).resource != resource) {
      ++pos;  // stale entry after a reschedule or a requeue
      continue;
    }
    AHEFT_ASSERT(state == JobPhase::kPending,
                 "queued job is already running");

    // (a) inputs present on this resource?
    sim::Time ready = sim::kTimeZero;
    for (const std::uint32_t e : dag_->in_edges(job)) {
      const dag::Edge& edge = dag_->edges()[e];
      if (phase(edge.from) != JobPhase::kFinished) {
        return;  // producer pending/running: its completion re-pumps us
      }
      const std::optional<sim::Time> arrival = record_.arrival(e, resource);
      AHEFT_ASSERT(arrival.has_value(),
                   "input of " + dag_->job(job).name +
                       " was never transferred to its resource");
      ready = std::max(ready, *arrival);
    }

    // (b) machine present, (c) machine free of this workflow's own running
    //     work and (d) granted by the session's contention policy. The
    //     session applies (c) from the ledger and arbitrates (d) against
    //     the other workflows' bookings and pending requests; under FCFS
    //     the grant is just their bookings.
    sim::Time start =
        std::max({ready, pool_->resource(resource).arrival, now});
    start = session_->acquire(this, resource, start,
                              next_segment(job, resource).duration(),
                              /*tag=*/job);

    if (start > now) {
      // Try again when the gating time is reached (deduplicated). A retry
      // armed before a rebuild still fires and clears the new mark.
      if (queue.pending_pump == 0 || queue.pending_pump > start) {
        simulator_->schedule_at(start, [this, resource] {
          if (const auto it = queues_.find(resource); it != queues_.end()) {
            it->second.pending_pump = 0;
          }
          pump(resource);
        });
        queue.pending_pump = start;
      }
      return;
    }

    if (!start_job(job, resource)) {
      // Queues restructured (fail/requeue): the scan state is stale. A
      // requeue moved only this job off a departed machine; the jobs
      // queued behind it must move too, so rescan in a fresh event.
      if (!failed_) {
        simulator_->schedule_at(now, [this, resource] { pump(resource); });
      }
      return;
    }
    ++pos;
  }
}

ExecutionEngine::Segment ExecutionEngine::next_segment(
    dag::JobId job, grid::ResourceId resource) const {
  Segment segment;
  segment.work = actual_->compute_cost(job, resource);
  segment.occupancy = segment.work;  // no checkpoints: no writes
  if (!done_frac_.empty()) {
    // The segment attempts the job's remaining fraction, pays any restart
    // read debt up front, and interleaves checkpoint writes.
    segment.work *= 1.0 - done_frac_[job];
    segment.debt = restart_debt_[job];
    segment.occupancy = resilience::segment_occupancy(
        session_->resilience().checkpoint, segment.work);
  }
  return segment;
}

bool ExecutionEngine::start_job(dag::JobId job, grid::ResourceId resource) {
  const sim::Time now = simulator_->now();
  const grid::Resource& machine = pool_->resource(resource);
  const Segment segment = next_segment(job, resource);
  double duration = segment.duration();
  double factor = 1.0;
  if (load_ != nullptr) {
    factor = load_->factor(resource, now);
    AHEFT_ASSERT(factor > 0.0,
                 "load factor must be positive on " + machine.name);
    duration *= factor;
  }
  const bool fits = sim::time_le(now + duration, machine.departure);

  if (!fits) {
    switch (session_->resilience().departure_action) {
      case resilience::DepartureAction::kError:
        if (load_ != nullptr) {
          // The planner fits jobs against nominal costs, so a load spike
          // can legitimately stretch one past a finite departure window.
          // Under kError that is a scenario the engine refuses to run, not
          // an internal invariant violation — report it as such.
          throw std::runtime_error(
              "load-stretched job " + dag_->job(job).name + " (" +
              std::to_string(duration) + " units at factor " +
              std::to_string(factor) + ") would outlive resource " +
              machine.name +
              ": scenarios combining load segments with finite departures "
              "need restart semantics (set ResilienceConfig::"
              "departure_action to kFail or kRequeue)");
        }
        AHEFT_ASSERT(fits, "job " + dag_->job(job).name +
                               " would outlive resource " + machine.name);
        break;
      case resilience::DepartureAction::kFail:
        fail_workflow("job " + dag_->job(job).name +
                      " would outlive resource " + machine.name);
        return false;
      case resilience::DepartureAction::kRequeue:
        // The departure is a failure the job does not foresee.
        if (sim::time_le(machine.departure, now)) {
          // The machine is already gone; nothing can run here. Withdraw
          // the pending acquisition and move the job elsewhere.
          session_->withdraw(this, resource, /*tag=*/job);
          requeue_job(job, now);
          return false;
        }
        break;  // run to the wall
    }
  }

  JobState& state = jobs_[job];
  state.load_factor = factor;
  state.segment = segment;
  if (!restart_debt_.empty()) {
    restart_debt_[job] = 0.0;  // consumed into this segment
  }
  // Run to the wall when the job does not fit: the departure interrupts it
  // and it keeps only its checkpointed floor progress.
  const sim::Time aft = fits ? now + duration : machine.departure;
  record_.add_running(RunningInfo{job, resource, now, aft});
  if (fits) {
    state.completion =
        simulator_->schedule_at(aft, [this, job] { complete_job(job); });
  } else {
    state.completion =
        simulator_->schedule_at(aft, [this, job] { hit_departure(job); });
  }
  session_->commit(this, resource, /*tag=*/job, now, aft);
  return true;
}

void ExecutionEngine::complete_job(dag::JobId job) {
  const JobState& state = jobs_[job];
  AHEFT_ASSERT(phase(job) == JobPhase::kRunning,
               "completion of non-running job");
  const JobRecord run = record_.record(job);
  record_.set_clock(simulator_->now());  // no finish after the clock
  record_.mark_finished(job, FinishedInfo{run.resource, run.ast, run.aft});
  makespan_ = std::max(makespan_, run.aft);
  counters_.useful_work += state.segment.work;
  counters_.checkpoint_overhead +=
      state.segment.debt + (state.segment.occupancy - state.segment.work);
  if (trace_ != nullptr) {
    trace_->record_compute(job, run.resource, run.ast, run.aft);
  }

  // Push outputs to wherever the current schedule placed the consumers
  // (static file-transfer model), and keep a copy at the producer. All
  // transfers are recorded before any consumer is pumped, otherwise a pump
  // triggered by one edge could observe another edge's missing arrival.
  std::vector<grid::ResourceId> to_pump;
  for (const std::uint32_t e : dag_->out_edges(job)) {
    const dag::Edge& edge = dag_->edges()[e];
    record_.record_arrival(e, run.resource, run.aft);
    if (phase(edge.to) != JobPhase::kFinished) {
      const grid::ResourceId target = schedule_.assignment(edge.to).resource;
      ensure_transfer(e, target, run.aft);
      to_pump.push_back(target);
    }
  }
  for (const grid::ResourceId target : to_pump) {
    pump(target);
  }
  pump(run.resource);
  if (hook_) {
    hook_(job, run.resource, run.ast, run.aft);
  }
}

void ExecutionEngine::account_interrupted_segment(dag::JobId job,
                                                  sim::Time at) {
  const JobState& state = jobs_[job];
  const JobRecord& run = record_.record(job);
  // Wall-clock elapsed back to nominal units (the segment composition is
  // nominal; the load factor stretched it uniformly).
  const double elapsed =
      std::max(at - run.ast, sim::kTimeZero) / state.load_factor;
  const double debt_paid = std::min(elapsed, state.segment.debt);
  counters_.checkpoint_overhead += debt_paid;
  const resilience::CheckpointModel& checkpoint =
      session_->resilience().checkpoint;
  const resilience::SegmentProgress progress = resilience::segment_progress(
      checkpoint, elapsed - debt_paid, state.segment.work);
  counters_.checkpoint_overhead += progress.overhead;
  counters_.lost_work += progress.lost;
  if (progress.retained > 0.0) {
    counters_.useful_work += progress.retained;
    // Retained work is in this machine's nominal units; fold it into the
    // machine-independent completed fraction. Strictly < 1: a segment's
    // retainable work is capped below its full remainder.
    const double total = actual_->compute_cost(job, run.resource);
    done_frac_[job] = std::min(done_frac_[job] + progress.retained / total,
                               1.0);
  }
  if (!restart_debt_.empty()) {
    restart_debt_[job] = done_frac_[job] > 0.0 ? checkpoint.read_cost : 0.0;
  }
}

void ExecutionEngine::hit_departure(dag::JobId job) {
  const JobRecord& run = record_.record(job);
  AHEFT_ASSERT(run.phase == JobPhase::kRunning,
               "departure hit a non-running job");
  const sim::Time now = simulator_->now();
  // The committed ledger window ends exactly at the wall — no truncation
  // needed; the machine is gone either way.
  stop_running(job, now);
  ++counters_.revoked_jobs;
  requeue_job(job, now);
}

bool ExecutionEngine::revoke_committed(grid::ResourceId resource,
                                       std::uint64_t tag) {
  if (failed_ || !has_schedule_ || tag >= jobs_.size()) {
    return false;
  }
  const dag::JobId job = static_cast<dag::JobId>(tag);
  const JobRecord& run = record_.record(job);
  if (run.phase != JobPhase::kRunning || run.resource != resource) {
    return false;
  }
  if (!simulator_->cancel(jobs_[job].completion)) {
    return false;  // completing this very instant: nothing left to take
  }
  const sim::Time now = simulator_->now();
  // Truncating carries the job's first-feasible baseline into its
  // re-registration, so the eviction does not zero its fair-share wait.
  session_->truncate_commit(this, resource, tag, now, /*carry_baseline=*/true);
  stop_running(job, now);
  ++counters_.revoked_jobs;
  requeue_job(job, now);
  return true;
}

void ExecutionEngine::requeue_job(dag::JobId job, sim::Time now) {
  if (failed_) {
    return;
  }
  if (!session_->may_revoke(this, /*tag=*/job)) {
    fail_workflow("job " + dag_->job(job).name +
                  " exceeded the per-job revocation cap");
    return;
  }
  session_->record_revocation(this, /*tag=*/job);
  const grid::ResourceId target = choose_requeue_target(job, now);
  if (target == grid::kInvalidResource) {
    fail_workflow("no machine left to requeue job " + dag_->job(job).name +
                  " on");
    return;
  }
  reassign(job, target, now);
  // The job was at (or past) its start: every producer has finished, so
  // its inputs retransmit toward the new machine from now.
  for (const std::uint32_t e : dag_->in_edges(job)) {
    ensure_transfer(e, target, now);
  }
  queues_[target].jobs.push_back(job);
  pump(target);
}

grid::ResourceId ExecutionEngine::choose_requeue_target(dag::JobId job,
                                                        sim::Time now) const {
  grid::ResourceId best = grid::kInvalidResource;
  sim::Time best_finish = sim::kTimeInfinity;
  grid::ResourceId fallback = grid::kInvalidResource;
  sim::Time fallback_departure = now;
  for (const grid::Resource& machine : pool_->all()) {
    if (machine.arrival == sim::kTimeInfinity) {
      continue;  // masked: owned by another shard of the session
    }
    if (sim::time_le(machine.departure, now)) {
      continue;  // already departed
    }
    const double occupancy = next_segment(job, machine.id).duration();
    const sim::Time start = session_->peek(
        this, machine.id, std::max(now, machine.arrival), occupancy);
    const sim::Time finish = start + occupancy;
    if (sim::time_le(finish, machine.departure)) {
      if (finish < best_finish) {
        best = machine.id;
        best_finish = finish;
      }
    } else if (machine.departure > fallback_departure) {
      fallback = machine.id;
      fallback_departure = machine.departure;
    }
  }
  return best != grid::kInvalidResource ? best : fallback;
}

void ExecutionEngine::reassign(dag::JobId job, grid::ResourceId target,
                               sim::Time now) {
  schedule_.unassign(job);
  // Plan the remainder after the target's planned work; the pump applies
  // the real gating (inputs, machine free, contention grant) at start.
  const double duration = next_segment(job, target).duration();
  const sim::Time start = schedule_.earliest_slot(
      target, now, duration, SlotPolicy::kEndOfQueue,
      pool_->resource(target).arrival, sim::kTimeInfinity);
  schedule_.assign(Assignment{job, target, start, start + duration});
}

void ExecutionEngine::fail_workflow(const std::string& reason) {
  if (failed_) {
    return;
  }
  failed_ = true;
  failure_reason_ = reason;
  const sim::Time now = simulator_->now();
  for (dag::JobId i = 0; i < dag_->job_count(); ++i) {
    const JobRecord& run = record_.record(i);
    if (run.phase != JobPhase::kRunning) {
      continue;
    }
    if (!simulator_->cancel(jobs_[i].completion)) {
      continue;  // completes this very instant: let it finish
    }
    session_->truncate_commit(this, run.resource, /*tag=*/i, now);
    stop_running(i, now);
  }
  queues_.clear();
  session_->withdraw_all(this);
  makespan_ = std::max(makespan_, now);
  if (failure_hook_) {
    failure_hook_(failure_reason_);
  }
}

const ExecutionSnapshot& ExecutionEngine::snapshot() {
  record_.set_clock(simulator_->now());
  return record_;
}

}  // namespace aheft::core
