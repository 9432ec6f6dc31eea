#include "core/dynamic_scheduler.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "dag/algorithms.h"
#include "sim/simulator.h"
#include "support/assert.h"

namespace aheft::core {

DynamicExecution::DynamicExecution(SimulationSession& session,
                                   const dag::Dag& dag,
                                   const grid::CostProvider& actual,
                                   double priority, bool contention_aware)
    : session_(&session),
      dag_(&dag),
      actual_(&actual),
      pool_(&session.pool()),
      load_(session.load()),
      trace_(session.trace()),
      contention_aware_(contention_aware),
      schedule_(dag.job_count()),
      finished_(dag.job_count(), false),
      pending_preds_(dag.job_count(), 0) {
  AHEFT_REQUIRE(dag.finalized(), "DAG must be finalized");
  session.add_participant(this, priority);
}

void DynamicExecution::launch(sim::Time release, Completion done) {
  AHEFT_REQUIRE(sim::time_le(session_->simulator().now(), release),
                "dynamic launch release lies in the simulator's past");
  release_ = release;
  done_ = std::move(done);
  for (dag::JobId i = 0; i < dag_->job_count(); ++i) {
    pending_preds_[i] = static_cast<std::uint32_t>(dag_->in_edges(i).size());
    if (pending_preds_[i] == 0) {
      ready_.push_back(i);
    }
  }
  session_->simulator().schedule_at(release, [this] {
    AHEFT_REQUIRE(pool_->count_available_at(release_) > 0,
                  "dynamic run needs at least one resource at release");
    planned_finish_ = estimate_solo_finish();
    dispatch();
  });
}

sim::Time DynamicExecution::estimate_solo_finish() const {
  // A just-in-time run has no plan, but fair-share stretch needs a scale
  // to normalize by — without one this workflow could never displace
  // competitors (planned_span 0 means stretch 0). Estimate the solo
  // makespan the way the engines use their release-time HEFT plan: a
  // greedy earliest-finish list schedule over the release-visible
  // machines with nominal costs, transfers priced at decision time. The
  // estimate must be realistic — an optimistic bound (say, the bare
  // critical path) inflates every stretch past the displacement
  // deadband and turns fair share into thrash. Contention-aware runs
  // additionally fit every placement into the ledger snapshot's free
  // gaps, mirroring what the contention-aware planner's release-time
  // HEFT pass prices for the static strategies.
  const std::vector<grid::ResourceId> visible =
      pool_->available_at(release_);
  std::optional<AvailabilityView> view;
  if (contention_aware_) {
    view.emplace(session_->availability_view(this));
  }
  std::vector<sim::Time> finish(dag_->job_count(), release_);
  std::vector<grid::ResourceId> where(dag_->job_count(),
                                      grid::kInvalidResource);
  // When each machine frees of this estimate's own placements.
  std::vector<sim::Time> free(pool_->universe_size(), release_);
  sim::Time span_end = release_;
  for (const dag::JobId job : dag_->topological_order()) {
    sim::Time best_finish = sim::kTimeInfinity;
    grid::ResourceId best_r = grid::kInvalidResource;
    for (const grid::ResourceId r : visible) {
      sim::Time ready = release_;
      for (const std::uint32_t e : dag_->in_edges(job)) {
        const dag::Edge& edge = dag_->edges()[e];
        sim::Time arrival = finish[edge.from];
        if (where[edge.from] != r) {
          arrival += actual_->comm_cost(edge, where[edge.from], r);
        }
        ready = std::max(ready, arrival);
      }
      const double w = actual_->compute_cost(job, r);
      sim::Time start = std::max(ready, free[r]);
      if (view) {
        start = view->earliest_fit(r, start, w);
      }
      const sim::Time f = start + w;
      if (f < best_finish) {
        best_finish = f;
        best_r = r;
      }
    }
    finish[job] = best_finish;
    where[job] = best_r;
    if (best_r != grid::kInvalidResource) {
      free[best_r] = best_finish;
    }
    span_end = std::max(span_end, best_finish);
  }
  return span_end;
}

void DynamicExecution::contention_changed(grid::ResourceId resource) {
  if (failed_) {
    return;
  }
  // Re-arbitrate every held dispatch on the resource (job-id order keeps
  // the replay deterministic). retry_held may commit and mutate held_,
  // so collect first.
  std::vector<dag::JobId> jobs;
  for (const auto& [job, hold] : held_) {
    if (hold.resource == resource) {
      jobs.push_back(job);
    }
  }
  for (const dag::JobId job : jobs) {
    retry_held(job);
  }
}

sim::Time DynamicExecution::inputs_ready(dag::JobId job,
                                         grid::ResourceId resource,
                                         sim::Time now) const {
  sim::Time ready = now;
  for (const std::uint32_t e : dag_->in_edges(job)) {
    const dag::Edge& edge = dag_->edges()[e];
    AHEFT_ASSERT(finished_[edge.from], "ready job with unfinished pred");
    const Assignment& producer = schedule_.assignment(edge.from);
    const sim::Time arrival =
        producer.resource == resource
            ? producer.finish
            : now + actual_->comm_cost(edge, producer.resource, resource);
    ready = std::max(ready, arrival);
  }
  return ready;
}

sim::Time DynamicExecution::machine_free_before(grid::ResourceId resource,
                                                std::uint64_t seq) const {
  sim::Time free = pool_->resource(resource).arrival;
  // Held dispatch decisions claim their granted window for every LATER
  // decision, exactly as an instant advance booking would have stacked —
  // but never for earlier ones, so two held claims cannot gate each
  // other both ways and push their retries apart forever.
  for (const auto& [held_job, hold] : held_) {
    if (hold.resource == resource && hold.seq < seq) {
      free = std::max(free, hold.retry_at + hold.nominal);
    }
  }
  return free;
}

sim::Time DynamicExecution::completion_time(dag::JobId job,
                                            grid::ResourceId resource,
                                            sim::Time now) const {
  // Peek (not acquire): the decision prices every candidate
  // resource, so the query must not register requests. The probe must
  // mirror assign()'s acquire exactly — same ready (inputs included) and
  // duration — or a policy deferral could push the realized start past
  // the departure window this estimate is vetted against.
  const double cost = actual_->compute_cost(job, resource);
  const sim::Time start = session_->peek(
      this, resource,
      std::max(inputs_ready(job, resource, now),
               machine_free_before(resource)),
      cost);
  return start + cost;
}

/// Runs one just-in-time decision round over every currently ready job.
void DynamicExecution::dispatch() {
  if (failed_ || ready_.empty()) {
    return;
  }
  const sim::Time now = session_->simulator().now();
  // May be empty: the last machine can depart as a producer finishes or
  // while a stuck round is deferred. Every ready job is then stuck below.
  const std::vector<grid::ResourceId> visible = pool_->available_at(now);
  ++batches_;

  bool stuck = false;
  while (!ready_.empty() && !failed_) {
    // Min-Min: each ready job's earliest completion over the machines,
    // and of those the earliest goes first.
    dag::JobId chosen = dag::kInvalidJob;
    grid::ResourceId chosen_resource = grid::kInvalidResource;
    sim::Time chosen_finish = sim::kTimeInfinity;

    for (const dag::JobId job : ready_) {
      sim::Time best = sim::kTimeInfinity;
      grid::ResourceId best_r = grid::kInvalidResource;
      for (const grid::ResourceId r : visible) {
        const sim::Time ct = completion_time(job, r, now);
        // Departures are announced (the window is in the pool), so a
        // just-in-time decision never books a machine that would leave
        // before the job finishes.
        if (!sim::time_le(ct, pool_->resource(r).departure)) {
          continue;
        }
        if (ct < best) {
          best = ct;
          best_r = r;
        }
      }
      if (best_r == grid::kInvalidResource) {
        if (departure_is_error()) {
          throw std::runtime_error(
              "dynamic dispatch: no visible machine can finish job " +
              dag_->job(job).name +
              " before departing (under DepartureAction::kError the "
              "dynamic baseline does not defer dispatch until repairs "
              "arrive)");
        }
        // The job waits for the pool to change (a repair may bring a
        // machine); see defer_dispatch below.
        stuck = true;
        continue;
      }
      if (chosen == dag::kInvalidJob || best < chosen_finish) {
        chosen = job;
        chosen_resource = best_r;
        chosen_finish = best;
      }
    }

    if (chosen == dag::kInvalidJob) {
      break;  // every remaining ready job is stuck
    }
    assign(chosen, chosen_resource, now);
    if (failed_) {
      break;  // assign() failed the run, which already cleared ready_
    }
    ready_.erase(std::find(ready_.begin(), ready_.end(), chosen));
  }
  if (stuck && !ready_.empty() && !failed_) {
    defer_dispatch(now);
  }
}

void DynamicExecution::defer_dispatch(sim::Time now) {
  sim::Time next = sim::kTimeInfinity;
  for (const sim::Time when :
       pool_->change_times(now, sim::kTimeInfinity)) {
    if (when > now && !sim::time_eq(when, now) && when < next) {
      next = when;
    }
  }
  if (next == sim::kTimeInfinity) {
    fail_run("no machine can finish job " +
             dag_->job(ready_.front()).name +
             " before departing, and the pool never changes again");
    return;
  }
  if (sim::time_eq(deferred_until_, next)) {
    return;  // retry already armed
  }
  deferred_until_ = next;
  session_->simulator().schedule_at(next, [this, next] {
    if (sim::time_eq(deferred_until_, next)) {
      deferred_until_ = -1.0;
      dispatch();
    }
  });
}

void DynamicExecution::fail_run(const std::string& reason) {
  if (failed_) {
    return;
  }
  failed_ = true;
  failure_reason_ = reason;
  session_->withdraw_all(this);
  held_.clear();
  ready_.clear();
  const sim::Time now = session_->simulator().now();
  makespan_ = std::max(makespan_, now);
  // Fire the completion like a normal finish would — in a fresh event,
  // so the failing dispatch unwinds first.
  session_->simulator().schedule_at(now, [this] {
    if (done_) {
      report();
    }
  });
}

void DynamicExecution::report() {
  StrategyOutcome outcome;
  outcome.evaluations = batches_;
  const ContentionStats stats = session_->contention_stats(this);
  outcome.contention_wait = stats.total_wait;
  outcome.max_contention_wait = stats.max_wait;
  outcome.makespan = makespan_;
  outcome.failed = failed_;
  outcome.failure_reason = failure_reason_;
  // The run is over (finished, or failed with dispatch shut down), so
  // nothing places jobs into the realized schedule anymore.
  outcome.schedule = std::move(schedule_);
  done_(std::move(outcome));
}

void DynamicExecution::record_input_transfers(dag::JobId job,
                                              grid::ResourceId resource,
                                              sim::Time decided_at) {
  if (trace_ == nullptr) {
    return;
  }
  // The paper's dynamic file model starts a transfer when the placement
  // decision is taken, so the records are stamped at decision time.
  for (const std::uint32_t e : dag_->in_edges(job)) {
    const dag::Edge& edge = dag_->edges()[e];
    const grid::ResourceId from = schedule_.assignment(edge.from).resource;
    if (from != resource) {
      trace_->record_transfer(
          edge.from, job, resource, decided_at,
          decided_at + actual_->comm_cost(edge, from, resource));
    }
  }
}

void DynamicExecution::assign(dag::JobId job, grid::ResourceId resource,
                              sim::Time now) {
  const double nominal = actual_->compute_cost(job, resource);
  const sim::Time ready = inputs_ready(job, resource, now);
  const sim::Time start = session_->acquire(
      this, resource, std::max(ready, machine_free_before(resource)), nominal,
      /*tag=*/job);

  if (session_->policy().two_phase_dynamic() && start > now &&
      !sim::time_eq(start, now)) {
    // Two-phase dispatch: the granted start lies in the future, so keep
    // the reservation held — visible in the ledger queue, displaceable
    // by the policy, re-arbitrated on wakeups — and commit only when the
    // grant matures. Under FCFS this branch never runs and the decision
    // advance-books the slot instantly (the historical behavior).
    session_->hold(this, resource, job, start);
    HeldDispatch& hold = held_[job];
    hold.resource = resource;
    hold.nominal = nominal;
    hold.decided_at = now;
    hold.inputs_ready = ready;
    hold.seq = next_decision_seq_++;
    schedule_retry(job, start);
    return;
  }
  start_assignment(job, resource, nominal, start, /*decided_at=*/now);
}

void DynamicExecution::schedule_retry(dag::JobId job, sim::Time when) {
  HeldDispatch& hold = held_[job];
  hold.retry_at = when;
  const std::uint64_t generation = ++hold.generation;
  session_->simulator().schedule_at(when, [this, job, generation] {
    const auto it = held_.find(job);
    if (it != held_.end() && it->second.generation == generation) {
      retry_held(job);
    }
  });
}

void DynamicExecution::retry_held(dag::JobId job) {
  const auto it = held_.find(job);
  if (failed_ || it == held_.end()) {
    return;
  }
  HeldDispatch hold = it->second;
  const sim::Time now = session_->simulator().now();
  const sim::Time feasible = std::max(
      {hold.inputs_ready, machine_free_before(hold.resource, hold.seq), now});
  const sim::Time start = session_->acquire(this, hold.resource, feasible,
                                            hold.nominal, /*tag=*/job);

  // The machine may depart before the re-arbitrated start fits: abandon
  // the held placement and re-decide over the machines visible now.
  if (!sim::time_le(start + hold.nominal,
                    pool_->resource(hold.resource).departure)) {
    session_->withdraw(this, hold.resource, job);
    held_.erase(job);
    ready_.push_back(job);
    dispatch();
    return;
  }

  if (start > now && !sim::time_eq(start, now)) {
    session_->hold(this, hold.resource, job, start);
    schedule_retry(job, start);
    return;
  }
  held_.erase(job);
  start_assignment(job, hold.resource, hold.nominal, std::max(start, now),
                   hold.decided_at);
}

void DynamicExecution::start_assignment(dag::JobId job,
                                        grid::ResourceId resource,
                                        double nominal, sim::Time start,
                                        sim::Time decided_at) {
  record_input_transfers(job, resource, decided_at);
  double duration = nominal;
  if (load_ != nullptr) {
    const double factor = load_->factor(resource, start);
    AHEFT_ASSERT(factor > 0.0, "load factor must be positive");
    duration *= factor;
  }
  const sim::Time finish = start + duration;
  // The dispatch loop vetted the nominal completion against the window;
  // a load spike can still stretch the realized run past it. Under kError
  // that is the scenario the execution engine refuses too; otherwise the
  // run fails gracefully (dynamic jobs have no restart machinery; see the
  // class note).
  if (!sim::time_le(finish, pool_->resource(resource).departure)) {
    if (departure_is_error()) {
      throw std::runtime_error(
          "load-stretched job " + dag_->job(job).name +
          " would outlive its machine: scenarios combining load segments "
          "with finite departures need restart semantics (set "
          "ResilienceConfig::departure_action to kFail or kRequeue)");
    }
    fail_run("load-stretched job " + dag_->job(job).name +
             " would outlive its machine");
    return;
  }
  session_->commit(this, resource, /*tag=*/job, start, finish);
  schedule_.assign(Assignment{job, resource, start, finish});
  session_->simulator().schedule_at(
      finish, [this, job, resource, start, finish] {
        complete(job, resource, start, finish);
      });
}

void DynamicExecution::complete(dag::JobId job, grid::ResourceId resource,
                                sim::Time start, sim::Time finish) {
  finished_[job] = true;
  ++finished_count_;
  makespan_ = std::max(makespan_, finish);
  if (trace_ != nullptr) {
    trace_->record_compute(job, resource, start, finish);
  }
  bool any_ready = false;
  for (const std::uint32_t e : dag_->out_edges(job)) {
    const dag::JobId succ = dag_->edges()[e].to;
    AHEFT_ASSERT(pending_preds_[succ] > 0, "pred counter underflow");
    if (--pending_preds_[succ] == 0) {
      ready_.push_back(succ);
      any_ready = true;
    }
  }
  if (any_ready) {
    dispatch();
  }
  if (finished() && done_) {
    report();
  }
}

}  // namespace aheft::core
