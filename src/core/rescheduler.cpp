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

/// Resolves in-edge `edge_index` of the job being placed: a finished
/// producer (AFT, resource, S0's arrivals) or its slot in S1.
ResolvedInput resolve_input(const RescheduleRequest& request,
                            std::size_t edge_index,
                            const Schedule& new_schedule) {
  const dag::Dag& dag = *request.dag;
  const dag::Edge& edge = dag.edges()[edge_index];
  const dag::JobId producer = edge.from;
  if (request.snapshot != nullptr && request.snapshot->finished(producer)) {
    const FinishedInfo info = request.snapshot->finished_info(producer);
    return ResolvedInput{&edge, edge_index, request.snapshot, info.resource,
                         info.aft};
  }
  // Unfinished predecessor: it is pinned or already placed in S1 (rank
  // order guarantees predecessors are handled first).
  AHEFT_ASSERT(new_schedule.assigned(producer),
               "predecessor " + dag.job(producer).name +
                   " not yet placed — rank order violated");
  const Assignment& placed = new_schedule.assignment(producer);
  return ResolvedInput{&edge, edge_index, nullptr, placed.resource,
                       placed.finish};
}

/// Eq. 1 for a resolved input on `target`: the one place the kernel
/// prices a transfer.
sim::Time input_available(const RescheduleRequest& request,
                          const ResolvedInput& input,
                          grid::ResourceId target) {
  if (input.arrivals != nullptr) {
    // Case 1 / "otherwise with finished n_m": the output already sits on
    // (or is in flight to) `target` because of schedule S0.
    if (const auto known = input.arrivals->arrival(input.edge_index, target)) {
      return *known;
    }
  } else if (input.from == target) {
    return input.finish;  // Case 3
  }
  const double c = request.estimates->comm_cost(*input.edge, input.from,
                                                target);
  AHEFT_ASSERT(c >= 0.0, "communication cost must be non-negative");
  if (input.arrivals == nullptr) {
    // Otherwise: output follows the (new) schedule with one transfer.
    return input.finish + c;
  }
  // Case 2: finished, but the output was never directed to `target`.
  return transfer_window(request.config.transfer_policy, request.clock,
                         input.finish, request.pool->resource(target).arrival,
                         c)
      .arrival;
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
    : request_(request), new_schedule_(new_schedule) {}

void EftSearch::resolve(dag::JobId job) {
  job_ = job;
  inputs_.clear();
  placed_ready_ = sim::kTimeZero;
  for (const std::uint32_t e : request_.dag->in_edges(job)) {
    const ResolvedInput& input =
        inputs_.emplace_back(resolve_input(request_, e, new_schedule_));
    if (input.arrivals == nullptr) {
      placed_ready_ = std::max(placed_ready_, input.finish);
    }
  }
  // Latest producers first: their inputs tend to arrive last, so best()
  // reaches its skip bound after pricing fewer of them. The max itself
  // does not depend on the order.
  std::sort(inputs_.begin(), inputs_.end(),
            [](const ResolvedInput& a, const ResolvedInput& b) {
              return a.finish > b.finish;
            });
}

std::optional<Assignment> EftSearch::best(
    std::span<const grid::ResourceId> candidates,
    const AvailabilityView* availability) const {
  std::optional<Assignment> best;
  for (const grid::ResourceId r : candidates) {
    const grid::Resource& machine = request_.pool->resource(r);
    // avail[j]: a resource is usable from its arrival, and never before
    // the rescheduling clock.
    const sim::Time not_before = std::max(request_.clock, machine.arrival);
    const double w = request_.estimates->compute_cost(job_, r);
    // Inner max of Eq. 2, priced input by input. `ready` only grows and
    // the slot starts no earlier than max(ready, not_before), so once that
    // plus w passes the departure wall (the bound earliest_slot tests) or
    // reaches the best EFT so far, this candidate can neither fit nor
    // finish strictly earlier: stop pricing and skip it. Starting from the
    // latest placed predecessor's finish leaves the full max unchanged.
    const sim::Time wall = machine.departure + sim::kTimeEpsilon;
    const auto ruled_out = [&](sim::Time ready) {
      const sim::Time finish = std::max(ready, not_before) + w;
      return finish > wall || (best && finish >= best->finish);
    };
    sim::Time ready = placed_ready_;
    bool skip = ruled_out(ready);
    for (std::size_t k = 0; !skip && k < inputs_.size(); ++k) {
      ready = std::max(ready, input_available(request_, inputs_[k], r));
      skip = ruled_out(ready);
    }
    if (skip) {
      continue;
    }
    const sim::Time start = new_schedule_.earliest_slot(
        r, ready, w, request_.config.slot_policy, not_before,
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
    const grid::Resource& machine = request_.pool->resource(r);
    // A machine that leaves clearly earlier than the best so far can never
    // replace it, whatever its finish: skip it before pricing its inputs.
    if (best && machine.departure < best_departure &&
        !sim::time_eq(machine.departure, best_departure)) {
      continue;
    }
    const sim::Time not_before = std::max(request_.clock, machine.arrival);
    const double w = request_.estimates->compute_cost(job_, r);
    sim::Time ready = sim::kTimeZero;
    for (const ResolvedInput& input : inputs_) {
      ready = std::max(ready, input_available(request_, input, r));
    }
    const sim::Time start = new_schedule_.earliest_slot(
        r, ready, w, request_.config.slot_policy, not_before,
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

sim::Time file_available(const RescheduleRequest& request,
                         std::size_t edge_index, grid::ResourceId target,
                         const Schedule& new_schedule) {
  return input_available(
      request, resolve_input(request, edge_index, new_schedule), target);
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
