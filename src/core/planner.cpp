#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "core/heft.h"
#include "core/rescheduler.h"
#include "sim/simulator.h"
#include "support/assert.h"
#include "support/log.h"

namespace aheft::core {

// The Resource Manager's reservation bookkeeping (§3.2: reserve per the
// arriving schedule, revoke the replaced schedule's reservations first)
// lives in the session's ResourceLedger now: the engine's acquire/commit
// calls register and commit the reservations, reschedules withdraw and
// truncate them. The planner no longer keeps a parallel write-only copy.

AdaptivePlanner::AdaptivePlanner(const dag::Dag& dag,
                                 const grid::CostProvider& estimates,
                                 const grid::CostProvider& actual,
                                 const grid::ResourcePool& pool,
                                 PlannerConfig config)
    : dag_(dag),
      estimates_(estimates),
      actual_(actual),
      pool_(pool),
      config_(config) {
  AHEFT_REQUIRE(dag.finalized(), "DAG must be finalized");
}

void AdaptivePlanner::evaluate(const std::string& reason, bool forced) {
  if (engine_->finished() || engine_->failed()) {
    return;
  }
  sim::Simulator& simulator = session_->simulator();
  const sim::Time clock = simulator.now();
  const std::vector<grid::ResourceId> visible = pool_.available_at(clock);
  if (visible.empty()) {
    AHEFT_LOG_WARN("no resources visible at t=" << clock
                                                << "; skipping evaluation");
    return;
  }
  ++result_.evaluations;

  // The engine's live record: nothing below advances the simulation, and
  // the only mutation (the adopting submit) comes after its last read.
  const ExecutionSnapshot& snapshot = engine_->snapshot();
  RescheduleRequest request;
  request.dag = &dag_;
  request.estimates = &estimates_;
  request.pool = &pool_;
  request.resources = visible;
  request.clock = clock;
  request.snapshot = &snapshot;
  request.previous = &engine_->current_schedule();
  request.config = config_.scheduler;
  // Under restart semantics a burst can leave no machine able to finish
  // some job before departing; the plan then knowingly runs it to the
  // least-bad wall instead of aborting the evaluation.
  request.allow_infeasible =
      session_->resilience().departure_action !=
      resilience::DepartureAction::kError;

  // Contention-aware: every evaluation re-snapshots the ledger — the
  // competitors' picture moves between events (arrivals, completions,
  // displaced holds), so reusing the release-time view would replan
  // against stale load. The snapshot time is recorded with the decision;
  // freshness (view_snapshot == time) is a tested invariant.
  std::optional<AvailabilityView> view;
  if (config_.contention_aware) {
    view.emplace(session_->availability_view(engine_.get()));
    request.availability = &*view;
  }

  Schedule candidate = aheft_schedule(request);
  const sim::Time candidate_makespan = candidate.makespan();

  // The incumbent the candidate must beat. Contention-blind: the last
  // adopted prediction (Fig. 2's S0 makespan). Contention-aware: that
  // prediction was priced under an older ledger picture, so comparing it
  // against a fresh-view candidate would under-adopt as foreign load
  // grows and over-adopt as it drains — re-price "keep the current
  // mapping" under the same snapshot instead, so both sides of the
  // adoption test see today's contention.
  sim::Time current_makespan = predicted_makespan_;
  if (view) {
    RescheduleRequest reprice = request;
    reprice.restrict_to_previous = true;
    reprice.config.order_candidates = 0;  // mapping fixed; no order search
    current_makespan = aheft_schedule(reprice).makespan();
  }

  // Fig. 2 line 7: adopt when the new plan strictly improves on S0 (with
  // an optional relative threshold), or when adoption is forced because the
  // current plan became infeasible (resource loss).
  const double required =
      current_makespan * (1.0 - config_.scheduler.adoption_threshold);
  const bool improves = candidate_makespan < required &&
                        !sim::time_eq(candidate_makespan, required);
  const bool adopt = forced || improves;

  result_.decisions.push_back(
      AdoptionRecord{clock, reason, current_makespan, candidate_makespan,
                     adopt, forced, view ? view->snapshot_time() : -1.0});

  if (adopt) {
    AHEFT_LOG_DEBUG("t=" << clock << " adopting reschedule: "
                         << predicted_makespan_ << " -> "
                         << candidate_makespan << " (" << reason << ")");
    engine_->submit(std::move(candidate));
    predicted_makespan_ = candidate_makespan;
    ++result_.adoptions;
  }
}

void AdaptivePlanner::launch(SimulationSession& session, sim::Time release,
                             Completion done, double priority) {
  AHEFT_REQUIRE(&session.pool() == &pool_,
                "planner launched into a session over a different pool");
  AHEFT_REQUIRE(sim::time_le(session.simulator().now(), release),
                "planner launch release lies in the simulator's past");
  session_ = &session;
  release_ = release;
  priority_ = priority;
  done_ = std::move(done);
  completed_ = false;
  result_ = StrategyOutcome{};
  predicted_makespan_ = sim::kTimeZero;
  engine_.reset();
  session.simulator().schedule_at(release, [this] { start(); });
}

void AdaptivePlanner::start() {
  AHEFT_REQUIRE(pool_.count_available_at(release_) > 0,
                "planner needs at least one resource at release");
  engine_ = std::make_unique<ExecutionEngine>(*session_, dag_, actual_,
                                              priority_);
  engine_->set_transfer_policy(config_.scheduler.transfer_policy);
  // Terminal failure (resilience: a departure under kFail, the revocation
  // cap, or no machine left) ends the workflow like a completion would —
  // in a fresh event, so the failing pump unwinds before the completion
  // callback can reshape the session.
  engine_->set_failure_hook([this](const std::string& /*reason*/) {
    sim::Simulator& simulator = session_->simulator();
    simulator.schedule_at(simulator.now(), [this] {
      if (!completed_) {
        finish();
      }
    });
  });

  grid::PerformanceHistoryRepository* history = session_->history();
  engine_->set_completion_hook([this, history](dag::JobId job,
                                               grid::ResourceId resource,
                                               sim::Time ast, sim::Time aft) {
    const double observed = aft - ast;
    if (history != nullptr) {
      history->record(dag_.job(job).operation, resource, observed);
    }
    if (engine_->finished()) {
      finish();
      return;
    }
    if (!config_.react_to_variance) {
      return;
    }
    const double estimated = estimates_.compute_cost(job, resource);
    const double deviation =
        estimated > 0.0 ? std::fabs(observed - estimated) / estimated : 0.0;
    if (deviation > config_.variance_threshold) {
      // Defer to a fresh event so the engine finishes its completion
      // bookkeeping before the planner mutates the schedule.
      sim::Simulator& simulator = session_->simulator();
      simulator.schedule_at(simulator.now(), [this] {
        evaluate("performance-variance", false);
      });
    }
  });

  // Initial static plan over the resources visible at the release time
  // (Fig. 2: S0 is null, so schedule unconditionally). Contention-aware
  // launches snapshot the ledger at release, so even the very first plan
  // routes around competitors already holding the machines.
  std::optional<AvailabilityView> view;
  if (config_.contention_aware) {
    view.emplace(session_->availability_view(engine_.get()));
  }
  Schedule initial = heft_schedule(
      dag_, estimates_, pool_, config_.scheduler, release_,
      view ? &*view : nullptr,
      /*allow_infeasible=*/session_->resilience().departure_action !=
          resilience::DepartureAction::kError);
  predicted_makespan_ = initial.makespan();
  result_.initial_makespan = predicted_makespan_;
  engine_->submit(std::move(initial));

  // Subscribe to every later resource-pool change (arrivals, departures).
  if (config_.react_to_pool_changes) {
    for (const sim::Time when :
         pool_.change_times(release_, sim::kTimeInfinity)) {
      session_->simulator().schedule_at(when, [this, when] {
        if (completed_) {
          return;
        }
        // Departures make the current plan infeasible for jobs mapped to
        // the lost resource, so adoption is forced in that case.
        const bool forced = !pool_.departures_at(when).empty();
        evaluate(forced ? "resource-departure" : "resource-arrival", forced);
      });
    }
  }
}

void AdaptivePlanner::finish() {
  AHEFT_ASSERT(!completed_, "planner finished twice");
  completed_ = true;
  result_.merge(engine_->counters());
  const ContentionStats stats = session_->contention_stats(engine_.get());
  result_.contention_wait = stats.total_wait;
  result_.max_contention_wait = stats.max_wait;
  result_.makespan = engine_->makespan();
  result_.failed = engine_->failed();
  result_.failure_reason = engine_->failure_reason();
  result_.schedule = engine_->current_schedule();
  if (done_) {
    done_(std::move(result_));
  }
}

}  // namespace aheft::core
