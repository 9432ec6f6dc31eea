#include "core/cpop.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>
#include <span>

#include "core/ranking.h"
#include "core/rescheduler.h"
#include "support/assert.h"

namespace aheft::core {

namespace {

bool nearly_equal(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-9 * scale;
}

}  // namespace

std::vector<dag::JobId> cpop_critical_path(
    const dag::Dag& dag, const grid::CostProvider& estimates,
    std::span<const grid::ResourceId> resources) {
  const std::vector<double> up = upward_ranks(dag, estimates, resources);
  const std::vector<double> down = downward_ranks(dag, estimates, resources);
  double best = 0.0;
  for (dag::JobId i = 0; i < dag.job_count(); ++i) {
    best = std::max(best, up[i] + down[i]);
  }
  std::vector<dag::JobId> path;
  for (const dag::JobId i : dag.topological_order()) {
    if (nearly_equal(up[i] + down[i], best)) {
      path.push_back(i);
    }
  }
  return path;
}

Schedule cpop_schedule(const dag::Dag& dag,
                       const grid::CostProvider& estimates,
                       const grid::ResourcePool& pool, SchedulerConfig config,
                       sim::Time clock, const AvailabilityView* availability) {
  const std::vector<grid::ResourceId> resources = pool.available_at(clock);
  AHEFT_REQUIRE(!resources.empty(), "CPOP needs at least one resource");

  const std::vector<double> up = upward_ranks(dag, estimates, resources);
  const std::vector<double> down = downward_ranks(dag, estimates, resources);

  // Critical path and its dedicated processor.
  const std::vector<dag::JobId> critical =
      cpop_critical_path(dag, estimates, resources);
  std::vector<bool> on_cp(dag.job_count(), false);
  for (const dag::JobId i : critical) {
    on_cp[i] = true;
  }
  grid::ResourceId cp_resource = resources.front();
  double cp_cost = std::numeric_limits<double>::infinity();
  for (const grid::ResourceId r : resources) {
    double total = 0.0;
    for (const dag::JobId i : critical) {
      total += estimates.compute_cost(i, r);
    }
    if (total < cp_cost) {
      cp_cost = total;
      cp_resource = r;
    }
  }

  // Priority queue of ready jobs by ranku + rankd (ties: smaller id).
  const auto priority = [&](dag::JobId i) { return up[i] + down[i]; };
  const auto cmp = [&](dag::JobId a, dag::JobId b) {
    if (!nearly_equal(priority(a), priority(b))) {
      return priority(a) < priority(b);  // max-heap on priority
    }
    return a > b;
  };
  std::priority_queue<dag::JobId, std::vector<dag::JobId>, decltype(cmp)>
      ready(cmp);
  std::vector<std::uint32_t> pending(dag.job_count(), 0);
  for (dag::JobId i = 0; i < dag.job_count(); ++i) {
    pending[i] = static_cast<std::uint32_t>(dag.in_edges(i).size());
    if (pending[i] == 0) {
      ready.push(i);
    }
  }

  RescheduleRequest request;  // the EFT search under initial-schedule semantics
  request.dag = &dag;
  request.estimates = &estimates;
  request.pool = &pool;
  request.resources = resources;
  request.clock = clock;
  request.config = config;
  request.availability = availability;

  Schedule result(dag.job_count());
  EftSearch search(request, result);
  while (!ready.empty()) {
    const dag::JobId job = ready.top();
    ready.pop();
    search.resolve(job);

    // Critical-path jobs are pinned to the CP processor; others pick the
    // EFT-minimising resource.
    const std::span<const grid::ResourceId> candidates =
        on_cp[job] ? std::span<const grid::ResourceId>(&cp_resource, 1)
                   : std::span<const grid::ResourceId>(resources);
    std::optional<Assignment> best = search.best(candidates, availability);
    if (!best && availability != nullptr) {
      // Same degradation as the AHEFT pass: when foreign load fills every
      // candidate's remaining window, fall back to the blind estimate
      // (held claims are displaceable) instead of aborting.
      best = search.best(candidates, nullptr);
    }
    AHEFT_ASSERT(best.has_value(),
                 "no feasible resource for job " + dag.job(job).name);
    result.assign(*best);

    for (const std::uint32_t e : dag.out_edges(job)) {
      const dag::JobId succ = dag.edges()[e].to;
      if (--pending[succ] == 0) {
        ready.push(succ);
      }
    }
  }
  return result;
}

}  // namespace aheft::core
