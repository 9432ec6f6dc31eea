#include "core/rescheduler.h"

#include <algorithm>
#include <optional>

#include "core/ranking.h"
#include "support/assert.h"

namespace aheft::core {

namespace {

void check_request(const RescheduleRequest& request) {
  AHEFT_REQUIRE(request.dag != nullptr, "request needs a DAG");
  AHEFT_REQUIRE(request.dag->finalized(), "DAG must be finalized");
  AHEFT_REQUIRE(request.estimates != nullptr, "request needs estimates");
  AHEFT_REQUIRE(request.pool != nullptr, "request needs a resource pool");
  AHEFT_REQUIRE(!request.resources.empty(),
                "request needs at least one visible resource");
  AHEFT_REQUIRE((request.snapshot == nullptr) == (request.previous == nullptr),
                "snapshot and previous schedule come together");
  AHEFT_REQUIRE(!request.restrict_to_previous || request.previous != nullptr,
                "re-pricing mode needs a previous schedule to restrict to");
  if (request.snapshot != nullptr) {
    AHEFT_REQUIRE(request.snapshot->job_count() == request.dag->job_count(),
                  "snapshot sized for a different DAG");
    AHEFT_REQUIRE(sim::time_eq(request.snapshot->clock(), request.clock),
                  "snapshot clock differs from request clock");
  }
  for (const grid::ResourceId r : request.resources) {
    AHEFT_REQUIRE(request.pool->resource(r).available_at(request.clock) ||
                      request.pool->resource(r).arrival == request.clock,
                  "resource in visible set is not available at clock");
  }
}

/// Seeds a fresh S1 with history: finished jobs always keep their actual
/// slots; running jobs are pinned under kKeepRunning when still feasible.
Schedule pin_history(const RescheduleRequest& request,
                     std::vector<bool>& pinned) {
  const dag::Dag& dag = *request.dag;
  Schedule result(dag.job_count());
  pinned.assign(dag.job_count(), false);
  const ExecutionSnapshot* snapshot = request.snapshot;
  if (snapshot == nullptr) {
    return result;
  }
  for (dag::JobId i = 0; i < dag.job_count(); ++i) {
    if (snapshot->finished(i)) {
      const FinishedInfo info = snapshot->finished_info(i);
      result.assign(Assignment{i, info.resource, info.ast, info.aft});
      pinned[i] = true;
    }
  }
  if (request.config.running_policy == RunningJobPolicy::kKeepRunning) {
    for (dag::JobId i = 0; i < dag.job_count(); ++i) {
      const std::optional<RunningInfo> running = snapshot->running_info(i);
      if (!running.has_value()) {
        continue;
      }
      const RunningInfo& info = *running;
      // A running job can only be kept if its resource is still in the
      // visible set and survives long enough — otherwise it is implicitly
      // restarted (rescheduling as the fault-tolerance mechanism).
      const bool visible =
          std::find(request.resources.begin(), request.resources.end(),
                    info.resource) != request.resources.end();
      const bool fits =
          sim::time_le(info.expected_finish,
                       request.pool->resource(info.resource).departure);
      if (!visible || !fits) {
        continue;
      }
      result.assign(Assignment{info.job, info.resource, info.ast,
                               info.expected_finish});
      pinned[info.job] = true;
    }
  }
  return result;
}

/// One greedy pass (the paper's Fig. 3 procedure) over a given job order.
Schedule schedule_in_order(const RescheduleRequest& request,
                           const std::vector<dag::JobId>& order) {
  const dag::Dag& dag = *request.dag;

  std::vector<bool> pinned;
  Schedule result = pin_history(request, pinned);
  EftSearch search(request, result);

  for (const dag::JobId job : order) {
    if (pinned[job]) {
      continue;
    }
    search.resolve(job);

    // Re-pricing restricts the search to the resource the previous plan
    // chose; the full visible set stays the fallback for jobs whose kept
    // resource became infeasible (departed, or its window filled up).
    std::span<const grid::ResourceId> primary = request.resources;
    const bool restricted =
        request.restrict_to_previous && request.previous->assigned(job);
    if (restricted) {
      primary = std::span(&request.previous->assignment(job).resource, 1);
    }

    std::optional<Assignment> best = search.best(primary,
                                                 request.availability);
    if (!best && request.availability != nullptr) {
      // Foreign load filled every machine's remaining window. The blind
      // estimate is still executable — held claims are displaceable and
      // committed windows may truncate — so degrade to it for this job
      // rather than declaring a live grid infeasible.
      best = search.best(primary, nullptr);
    }
    if (!best && restricted) {
      // The kept resource is gone for good (typically departed): let the
      // re-priced plan move this job like a real reschedule would.
      best = search.best(request.resources, request.availability);
      if (!best && request.availability != nullptr) {
        best = search.best(request.resources, nullptr);
      }
    }

    if (!best && request.allow_infeasible) {
      // Every visible machine departs before this job could finish. With
      // restart semantics on, infeasibility is an outcome rather than an
      // error: place the job on the longest-surviving machine (the wall
      // that salvages the most checkpointed progress) and let the
      // executor's departure handling take it from there.
      best = search.longest_surviving(request.resources);
    }

    AHEFT_ASSERT(best.has_value(),
                 "no feasible resource for job " + dag.job(job).name);
    result.assign(*best);
  }

  return result;
}

}  // namespace

EftSearch::EftSearch(const RescheduleRequest& request,
                     const Schedule& new_schedule)
    : request_(request),
      new_schedule_(new_schedule),
      machines_(request.pool->universe_size()),
      recorded_(machines_.size(), -sim::kTimeInfinity),
      copied_(machines_.size(), 0) {
  for (grid::ResourceId r = 0; r < machines_.size(); ++r) {
    const grid::Resource& machine = request.pool->resource(r);
    machines_[r] = Window{machine.arrival,
                          std::max(request.clock, machine.arrival),
                          machine.departure,
                          machine.departure + sim::kTimeEpsilon};
  }
}

void EftSearch::resolve(dag::JobId job) {
  const dag::Dag& dag = *request_.dag;
  const ExecutionSnapshot* snapshot = request_.snapshot;
  job_ = job;
  placed_ready_ = sim::kTimeZero;
  top1_ = sim::kTimeZero;
  top1_machine_ = grid::kInvalidResource;
  top2_ = sim::kTimeZero;
  finished_.clear();
  for (const grid::ResourceId m : touched_) {
    recorded_[m] = -sim::kTimeInfinity;
    copied_[m] = 0;
  }
  touched_.clear();

  for (const std::uint32_t e : dag.in_edges(job)) {
    const dag::Edge& edge = dag.edges()[e];
    // The one transfer price of this edge (Eq. 1's c between distinct
    // machines).
    const double c = request_.estimates->mean_comm_cost(edge);
    AHEFT_ASSERT(c >= 0.0, "communication cost must be non-negative");
    if (snapshot != nullptr && snapshot->finished(edge.from)) {
      // Case 2: finished, but the output was never directed to the
      // candidate. Priced for a machine that was always there; ready()
      // adds the candidate's own arrival under kPrestagedArrivals.
      const sim::Time aft = snapshot->record(edge.from).aft;
      finished_.push_back(FinishedInput{
          transfer_window(request_.config.transfer_policy, request_.clock,
                          aft, -sim::kTimeInfinity, c)
              .arrival,
          e});
      continue;
    }
    // Unfinished predecessor: it is pinned or already placed in S1 (rank
    // order guarantees predecessors are handled first).
    AHEFT_ASSERT(new_schedule_.assigned(edge.from),
                 "predecessor " + dag.job(edge.from).name +
                     " not yet placed — rank order violated");
    const Assignment& placed = new_schedule_.assignment(edge.from);
    // Case 3 on the producer's machine, one transfer everywhere else.
    placed_ready_ = std::max(placed_ready_, placed.finish);
    const sim::Time sent = placed.finish + c;
    if (placed.resource == top1_machine_) {
      top1_ = std::max(top1_, sent);
    } else if (sent > top1_) {
      top2_ = top1_;
      top1_ = sent;
      top1_machine_ = placed.resource;
    } else {
      top2_ = std::max(top2_, sent);
    }
  }

  // Case 1: S0 already sent the output to (or kept it on) a machine. Walk
  // each finished input's copies latest value first, so copied_[m] counts
  // the leading inputs machine m holds and ready() takes the next one.
  std::sort(finished_.begin(), finished_.end(),
            [](const FinishedInput& a, const FinishedInput& b) {
              return a.when > b.when;
            });
  for (std::uint32_t k = 0; k < finished_.size(); ++k) {
    const std::uint32_t e = finished_[k].edge;
    const dag::JobId producer = dag.edges()[e].from;
    const grid::ResourceId from = snapshot->record(producer).resource;
    bool kept = false;
    snapshot->for_each_arrival(e, [&](grid::ResourceId m, sim::Time when) {
      kept |= m == from;
      if (recorded_[m] == -sim::kTimeInfinity) {
        touched_.push_back(m);
      }
      recorded_[m] = std::max(recorded_[m], when);
      if (copied_[m] == k) {
        copied_[m] = k + 1;
      }
    });
    AHEFT_ASSERT(kept, "finished job " + dag.job(producer).name +
                           " has no copy of its output on its own machine");
  }
}

sim::Time EftSearch::ready(grid::ResourceId r) const {
  sim::Time ready =
      std::max(placed_ready_, r == top1_machine_ ? top2_ : top1_);
  if (finished_.empty()) {
    return ready;
  }
  ready = std::max(ready, recorded_[r]);
  if (copied_[r] < finished_.size()) {
    sim::Time sent = finished_[copied_[r]].when;
    if (request_.config.transfer_policy ==
        TransferPolicy::kPrestagedArrivals) {
      // transfer_window's target arrival, applied after the max over
      // inputs: max_k max(x_k, a) == max(max_k x_k, a).
      sent = std::max(sent, machines_[r].arrival);
    }
    ready = std::max(ready, sent);
  }
  return ready;
}

std::optional<Assignment> EftSearch::best(
    std::span<const grid::ResourceId> candidates,
    const AvailabilityView* availability) {
  compute_.resize(candidates.size());
  request_.estimates->compute_costs(job_, candidates, compute_);
  std::optional<Assignment> best;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    const grid::ResourceId r = candidates[k];
    const Window& machine = machines_[r];
    const double w = compute_[k];
    const sim::Time ready_at = ready(r);
    // The slot starts no earlier than max(ready, not_before): past the
    // departure wall (the bound earliest_slot tests) it gets no slot, and
    // at or past the best EFT so far it cannot finish strictly earlier.
    const sim::Time bound = std::max(ready_at, machine.not_before) + w;
    if (bound > machine.wall || (best && bound >= best->finish)) {
      continue;
    }
    const sim::Time start = new_schedule_.earliest_slot(
        r, ready_at, w, request_.config.slot_policy, machine.not_before,
        machine.departure, availability);
    if (start == sim::kTimeInfinity) {
      continue;  // does not fit in the resource's availability window
    }
    const sim::Time finish = start + w;  // Eq. 3
    // Strictly smaller EFT wins; near-equal EFTs keep the earlier
    // resource in visible-set order, matching [19]'s published
    // schedules.
    if (!best ||
        (finish < best->finish && !sim::time_eq(finish, best->finish))) {
      best = Assignment{job_, r, start, finish};
    }
  }
  return best;
}

std::optional<Assignment> EftSearch::longest_surviving(
    std::span<const grid::ResourceId> candidates) const {
  std::optional<Assignment> best;
  sim::Time best_departure = -sim::kTimeInfinity;
  for (const grid::ResourceId r : candidates) {
    const Window& machine = machines_[r];
    // A machine that leaves clearly earlier than the best so far can never
    // replace it, whatever its finish: skip it before pricing it.
    if (best && machine.departure < best_departure &&
        !sim::time_eq(machine.departure, best_departure)) {
      continue;
    }
    const double w = request_.estimates->compute_cost(job_, r);
    const sim::Time start = new_schedule_.earliest_slot(
        r, ready(r), w, request_.config.slot_policy, machine.not_before,
        sim::kTimeInfinity, nullptr);
    const sim::Time finish = start + w;
    if (!best || machine.departure > best_departure ||
        (sim::time_eq(machine.departure, best_departure) &&
         finish < best->finish)) {
      best = Assignment{job_, r, start, finish};
      best_departure = machine.departure;
    }
  }
  return best;
}

Schedule aheft_schedule(const RescheduleRequest& request) {
  check_request(request);
  const dag::Dag& dag = *request.dag;

  if (request.restrict_to_previous) {
    // Re-pricing: keep the previous plan's mapping and per-resource order
    // by walking its jobs in start order (a linear extension of both the
    // precedence and the per-resource queues, since the plan was
    // feasible). Under an empty view this reproduces the previous
    // schedule exactly; under a fresh view it re-times the same plan
    // against today's foreign load. Order exploration is meaningless
    // with the mapping fixed, so the pass is single-shot.
    std::vector<dag::JobId> order(dag.job_count());
    for (dag::JobId i = 0; i < dag.job_count(); ++i) {
      order[i] = i;
    }
    // Jobs the previous plan did not cover sort last (schedule_in_order
    // remaps them over the full visible set), so a partial previous
    // schedule degrades instead of aborting.
    const auto start_of = [&](dag::JobId job) {
      const std::optional<Assignment>& slot =
          request.previous->maybe_assignment(job);
      return slot ? slot->start : sim::kTimeInfinity;
    };
    std::sort(order.begin(), order.end(),
              [&](dag::JobId a, dag::JobId b) {
                const sim::Time sa = start_of(a);
                const sim::Time sb = start_of(b);
                if (sa != sb) {
                  return sa < sb;
                }
                return a < b;
              });
    return schedule_in_order(request, order);
  }

  // Upward ranks over the visible resource set (Eq. 5/6), most significant
  // jobs first (Fig. 3 lines 2–3).
  const std::vector<double> ranks =
      upward_ranks(dag, *request.estimates, request.resources);
  const std::vector<dag::JobId> order = rank_order(ranks);

  Schedule best = schedule_in_order(request, order);

  // Optional order exploration: strict rank order is a heuristic, and jobs
  // with nearly equal ranks can legally schedule in either order. Trying a
  // few single-swap variants recovers schedules like the paper's Fig. 5(b),
  // which beats strict rank order by one near-tie swap.
  std::size_t tried = 0;
  for (std::size_t k = 0;
       k + 1 < order.size() && tried < request.config.order_candidates; ++k) {
    const dag::JobId a = order[k];
    const dag::JobId b = order[k + 1];
    const double gap = ranks[a] - ranks[b];
    const double scale = std::max(1.0, std::max(ranks[a], ranks[b]));
    if (gap > kRankTieFraction * scale) {
      continue;
    }
    // Swapping is only legal if it does not violate precedence.
    const std::vector<dag::JobId> succ_of_a = dag.successors(a);
    if (std::find(succ_of_a.begin(), succ_of_a.end(), b) != succ_of_a.end()) {
      continue;
    }
    std::vector<dag::JobId> variant = order;
    std::swap(variant[k], variant[k + 1]);
    ++tried;
    Schedule candidate = schedule_in_order(request, variant);
    if (candidate.makespan() <
        best.makespan() - sim::kTimeEpsilon * (1.0 + best.makespan())) {
      best = std::move(candidate);
    }
  }
  return best;
}

}  // namespace aheft::core
