// AHEFT rescheduler tests: FEA cases (Eq. 1), snapshot pinning, the Fig. 5
// worked example, policy behaviours, and a randomized differential check of
// the EFT search against a plain per-(edge, resource) reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>
#include <string>

#include "core/cpop.h"
#include "core/execution_engine.h"
#include "core/heft.h"
#include "core/ranking.h"
#include "core/rescheduler.h"
#include "helpers.h"
#include "sim/simulator.h"
#include "support/assert.h"
#include "support/rng.h"
#include "workloads/sample.h"

namespace aheft::core {
namespace {

/// Two jobs a -> b with data 10, two always-on resources, costs:
/// a: 5 on both; b: 5 on both. Used for surgical FEA checks.
struct TinyFixture {
  TinyFixture() : model(2, 3) {
    a = graph.add_job("a");
    b = graph.add_job("b");
    graph.add_edge(a, b, 10.0);
    graph.finalize();
    for (grid::ResourceId r = 0; r < 3; ++r) {
      pool.add(grid::Resource{.name = "", .arrival = 0.0});
      model.set_compute_cost(0, r, 5.0);
      model.set_compute_cost(1, r, 5.0);
    }
  }

  RescheduleRequest request(const ExecutionSnapshot* snapshot,
                            const Schedule* previous, sim::Time clock) {
    RescheduleRequest req;
    req.dag = &graph;
    req.estimates = &model;
    req.pool = &pool;
    req.resources = {0, 1, 2};
    req.clock = clock;
    req.snapshot = snapshot;
    req.previous = previous;
    return req;
  }

  dag::Dag graph;
  grid::ResourcePool pool;
  grid::MachineModel model;
  dag::JobId a{};
  dag::JobId b{};
};

TEST(FileAvailable, Case1FinishedOnTarget) {
  TinyFixture fx;
  ExecutionSnapshot snap(20.0, 2, 1);
  snap.mark_finished(fx.a, FinishedInfo{0, 0.0, 5.0});
  snap.record_arrival(0, 0, 5.0);  // output at its own resource at AFT
  Schedule s0(2);
  const auto req = fx.request(&snap, &s0, 20.0);
  Schedule s1(2);
  EXPECT_DOUBLE_EQ(file_available(req, 0, 0, s1), 5.0);  // AFT(a)
}

TEST(FileAvailable, Case2FinishedButNeverSentToTarget) {
  TinyFixture fx;
  ExecutionSnapshot snap(20.0, 2, 1);
  snap.mark_finished(fx.a, FinishedInfo{0, 0.0, 5.0});
  snap.record_arrival(0, 0, 5.0);
  Schedule s0(2);
  auto req = fx.request(&snap, &s0, 20.0);
  Schedule s1(2);
  // Literal Eq. 1 Case 2: retransmission starts at clock, 20 + 10 = 30.
  req.config.transfer_policy = TransferPolicy::kRetransmitFromClock;
  EXPECT_DOUBLE_EQ(file_available(req, 0, 1, s1), 30.0);
  // Eager replication: the copy left at AFT, 5 + 10 = 15.
  req.config.transfer_policy = TransferPolicy::kEagerReplicate;
  EXPECT_DOUBLE_EQ(file_available(req, 0, 1, s1), 15.0);
}

TEST(FileAvailable, EagerReplicationWaitsForTheTargetToExist) {
  TinyFixture fx;
  fx.pool.set_arrival(2, 12.0);  // r2 joins at t=12
  ExecutionSnapshot snap(20.0, 2, 1);
  snap.mark_finished(fx.a, FinishedInfo{0, 0.0, 5.0});
  snap.record_arrival(0, 0, 5.0);
  Schedule s0(2);
  auto req = fx.request(&snap, &s0, 20.0);
  Schedule s1(2);
  req.config.transfer_policy = TransferPolicy::kEagerReplicate;
  // Transfer to r2 could only start when r2 appeared: 12 + 10 = 22.
  EXPECT_DOUBLE_EQ(file_available(req, 0, 2, s1), 22.0);
}

TEST(FileAvailable, InFlightTransferKeepsItsArrival) {
  TinyFixture fx;
  ExecutionSnapshot snap(20.0, 2, 1);
  snap.mark_finished(fx.a, FinishedInfo{0, 0.0, 5.0});
  snap.record_arrival(0, 0, 5.0);
  snap.record_arrival(0, 2, 15.0);  // transfer initiated at AFT per S0
  Schedule s0(2);
  auto req = fx.request(&snap, &s0, 20.0);
  Schedule s1(2);
  // "Otherwise" with finished producer: SFT + c = 5 + 10 = 15.
  EXPECT_DOUBLE_EQ(file_available(req, 0, 2, s1), 15.0);
}

TEST(FileAvailable, Case3UnfinishedSameResource) {
  TinyFixture fx;
  auto req = fx.request(nullptr, nullptr, 0.0);
  Schedule s1(2);
  s1.assign(Assignment{fx.a, 1, 0.0, 5.0});
  EXPECT_DOUBLE_EQ(file_available(req, 0, 1, s1), 5.0);       // SFT
  EXPECT_DOUBLE_EQ(file_available(req, 0, 0, s1), 15.0);      // SFT + c
}

TEST(Rescheduler, InitialSchedulingEqualsHeft) {
  const auto scenario = workloads::sample_scenario();
  const Schedule heft =
      heft_schedule(scenario.dag, scenario.model, scenario.pool);

  RescheduleRequest req;
  req.dag = &scenario.dag;
  req.estimates = &scenario.model;
  req.pool = &scenario.pool;
  req.resources = scenario.pool.available_at(0.0);
  req.clock = 0.0;
  const Schedule direct = aheft_schedule(req);

  ASSERT_EQ(direct.job_count(), heft.job_count());
  for (dag::JobId i = 0; i < heft.job_count(); ++i) {
    EXPECT_EQ(direct.assignment(i).resource, heft.assignment(i).resource);
    EXPECT_DOUBLE_EQ(direct.assignment(i).start, heft.assignment(i).start);
  }
}

class Fig5 : public ::testing::Test {
 protected:
  /// Executes the published HEFT plan to t=15 and returns the reschedule
  /// request state at that moment.
  void run_to_15() {
    heft_ = heft_schedule(scenario_.dag, scenario_.model, scenario_.pool);
    engine_.submit(heft_);
    sim_.run_until(15.0);
    snapshot_ = engine_.snapshot();
  }

  RescheduleRequest request(SchedulerConfig config) {
    RescheduleRequest req;
    req.dag = &scenario_.dag;
    req.estimates = &scenario_.model;
    req.pool = &scenario_.pool;
    req.resources = scenario_.pool.available_at(15.0);
    req.clock = 15.0;
    req.snapshot = &snapshot_;
    req.previous = &heft_;
    req.config = config;
    return req;
  }

  workloads::SampleScenario scenario_ = workloads::sample_scenario(15.0);
  sim::Simulator sim_;
  ExecutionEngine engine_{sim_, scenario_.dag, scenario_.model,
                          scenario_.pool};
  Schedule heft_;
  ExecutionSnapshot snapshot_ = ExecutionSnapshot::initial(10, 15);
};

TEST_F(Fig5, SnapshotAt15SeesN1FinishedAndN3Running) {
  run_to_15();
  EXPECT_EQ(snapshot_.finished_count(), 1u);
  EXPECT_TRUE(snapshot_.finished(0));
  EXPECT_DOUBLE_EQ(snapshot_.finished_info(0).aft, 9.0);
  ASSERT_EQ(snapshot_.running().size(), 1u);
  EXPECT_EQ(snapshot_.running()[0].job, 2u);  // n3
  EXPECT_DOUBLE_EQ(snapshot_.running()[0].expected_finish, 28.0);
}

TEST_F(Fig5, StrictTransfersGreedyCannotBeatTheCurrentPlan) {
  // Under the literal Eq. 1 Case 2 ("transmission can not be earlier than
  // clock"), strict rank order finds nothing better than the incumbent 80.
  run_to_15();
  SchedulerConfig config;
  config.transfer_policy = TransferPolicy::kRetransmitFromClock;
  const Schedule candidate = aheft_schedule(request(config));
  EXPECT_GE(candidate.makespan(), 80.0 - sim::kTimeEpsilon);
}

TEST_F(Fig5, PrestagedGreedyPlacesN5OnR4AsDrawnButFallsIntoAGreedyTrap) {
  // Fig. 5(b) as drawn has n5 on the new r4 at [20, 34): its input counts
  // from AFT(n1) + c = 20 although r4 only joined at 15 — the pre-staged
  // transfer model. Greedy min-EFT under that model indeed makes exactly
  // this placement, but then sends n9 to r1 (EFT 67 beats r2's 68), which
  // blocks n8 and cascades to makespan 87; the adoption filter rightly
  // declines it. The published 76 therefore mixes pre-staged availability
  // with a placement strict rank-order greedy does not produce.
  run_to_15();
  SchedulerConfig config;
  config.transfer_policy = TransferPolicy::kPrestagedArrivals;
  const Schedule candidate = aheft_schedule(request(config));
  EXPECT_EQ(candidate.assignment(4).resource, 3u);  // n5 on r4, as drawn
  EXPECT_DOUBLE_EQ(candidate.assignment(4).start, 20.0);
  EXPECT_DOUBLE_EQ(candidate.assignment(4).finish, 34.0);
  EXPECT_DOUBLE_EQ(candidate.makespan(), 87.0);  // ... but the plan loses
}

TEST_F(Fig5, OrderExplorationReaches76EvenUnderStrictTransfers) {
  // The 76-unit makespan is also reachable under the conservative transfer
  // model — one near-tie order swap (n6 before n5) suffices.
  run_to_15();
  SchedulerConfig config;
  config.transfer_policy = TransferPolicy::kRetransmitFromClock;
  config.order_candidates = 8;
  const Schedule candidate = aheft_schedule(request(config));
  EXPECT_DOUBLE_EQ(candidate.makespan(), 76.0);
  // Fig. 5(b) structure: n3 keeps its r3 slot; n10 finishes at 76.
  EXPECT_EQ(candidate.assignment(2).resource, 2u);
  EXPECT_DOUBLE_EQ(candidate.assignment(2).start, 9.0);
  EXPECT_DOUBLE_EQ(candidate.assignment(9).finish, 76.0);
}

TEST_F(Fig5, RestartPolicyLosesN3Progress) {
  run_to_15();
  SchedulerConfig config;
  config.running_policy = RunningJobPolicy::kRestartable;
  const Schedule candidate = aheft_schedule(request(config));
  // n3 restarts no earlier than the reschedule clock.
  EXPECT_GE(candidate.assignment(2).start, 15.0);
}

TEST_F(Fig5, KeepRunningPinsN3) {
  run_to_15();
  SchedulerConfig config;
  config.running_policy = RunningJobPolicy::kKeepRunning;
  const Schedule candidate = aheft_schedule(request(config));
  EXPECT_EQ(candidate.assignment(2).resource, 2u);
  EXPECT_DOUBLE_EQ(candidate.assignment(2).start, 9.0);
  EXPECT_DOUBLE_EQ(candidate.assignment(2).finish, 28.0);
}

TEST_F(Fig5, FinishedJobsAreAlwaysPinned) {
  run_to_15();
  for (const auto policy :
       {RunningJobPolicy::kKeepRunning, RunningJobPolicy::kRestartable}) {
    SchedulerConfig config;
    config.running_policy = policy;
    config.order_candidates = 8;
    const Schedule candidate = aheft_schedule(request(config));
    EXPECT_EQ(candidate.assignment(0).resource, 2u);
    EXPECT_DOUBLE_EQ(candidate.assignment(0).start, 0.0);
    EXPECT_DOUBLE_EQ(candidate.assignment(0).finish, 9.0);
  }
}

TEST_F(Fig5, NewJobsNeverScheduledBeforeClock) {
  run_to_15();
  SchedulerConfig config;
  config.order_candidates = 8;
  const Schedule candidate = aheft_schedule(request(config));
  for (dag::JobId i = 0; i < 10; ++i) {
    if (i == 0 || i == 2) {
      continue;  // pinned history
    }
    EXPECT_GE(candidate.assignment(i).start, 15.0) << "n" << i + 1;
  }
}

TEST(Rescheduler, DepartedResourceForcesRunningJobOff) {
  TinyFixture fx;
  // Job a runs on r0 which departs at t=8, before a's expected finish 10.
  fx.pool.set_departure(0, 8.0);
  ExecutionSnapshot snap(6.0, 2, 1);
  snap.add_running(RunningInfo{fx.a, 0, 5.0, 10.0});
  Schedule s0(2);
  s0.assign(Assignment{fx.a, 0, 5.0, 10.0});
  s0.assign(Assignment{fx.b, 0, 10.0, 15.0});

  RescheduleRequest req = fx.request(&snap, &s0, 6.0);
  req.resources = {1, 2};  // r0 is gone
  req.config.running_policy = RunningJobPolicy::kKeepRunning;
  const Schedule s1 = aheft_schedule(req);
  EXPECT_NE(s1.assignment(fx.a).resource, 0u);
  EXPECT_GE(s1.assignment(fx.a).start, 6.0);
}

TEST(Rescheduler, RequestValidation) {
  TinyFixture fx;
  RescheduleRequest req = fx.request(nullptr, nullptr, 0.0);
  req.resources.clear();
  EXPECT_THROW(aheft_schedule(req), std::invalid_argument);

  RescheduleRequest bad = fx.request(nullptr, nullptr, 0.0);
  Schedule s0(2);
  bad.previous = &s0;  // previous without snapshot
  EXPECT_THROW(aheft_schedule(bad), std::invalid_argument);
}

// ----- property sweep: rescheduling mid-run stays consistent -------------

class ReschedulerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReschedulerProperty, MidRunRescheduleIsConsistent) {
  const test::RandomCase c = test::make_random_case(GetParam());
  const Schedule initial = heft_schedule(c.workload.dag, c.model, c.pool);

  sim::Simulator sim;
  ExecutionEngine engine(sim, c.workload.dag, c.model, c.pool);
  engine.submit(initial);
  const sim::Time pause = initial.makespan() / 2.0;
  sim.run_until(pause);
  const ExecutionSnapshot snap = engine.snapshot();

  RescheduleRequest req;
  req.dag = &c.workload.dag;
  req.estimates = &c.model;
  req.pool = &c.pool;
  req.resources = c.pool.available_at(pause);
  req.clock = pause;
  req.snapshot = &snap;
  req.previous = &engine.current_schedule();
  const Schedule candidate = aheft_schedule(req);

  // Complete, and everything not already done starts at/after the clock.
  EXPECT_TRUE(candidate.complete());
  for (dag::JobId i = 0; i < candidate.job_count(); ++i) {
    if (snap.finished(i)) {
      EXPECT_DOUBLE_EQ(candidate.assignment(i).finish,
                       snap.finished_info(i).aft);
    } else if (!snap.running_info(i).has_value()) {
      EXPECT_GE(candidate.assignment(i).start, pause - sim::kTimeEpsilon);
    }
  }
  // Submitting the candidate and running to completion must succeed and
  // realize exactly the predicted makespan (accurate estimates).
  engine.submit(candidate);
  sim.run();
  EXPECT_TRUE(engine.finished());
  EXPECT_NEAR(engine.makespan(), candidate.makespan(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReschedulerProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

// ----- differential: the EFT search against the plain reference loop -----
//
// The reference below is the planning loop as it stood before EftSearch:
// file_available per (in-edge, resource) and every candidate slotted, no
// pruning. The library must pick the same resource with the exact same
// start and finish for every job, under every policy combination.

namespace reference {

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
      const FinishedInfo& info = snapshot->finished_info(i);
      result.assign(Assignment{i, info.resource, info.ast, info.aft});
      pinned[i] = true;
    }
  }
  if (request.config.running_policy == RunningJobPolicy::kKeepRunning) {
    for (const RunningInfo& info : snapshot->running()) {
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

Schedule schedule_in_order(const RescheduleRequest& request,
                           const std::vector<dag::JobId>& order) {
  const dag::Dag& dag = *request.dag;
  const grid::CostProvider& est = *request.estimates;

  std::vector<bool> pinned;
  Schedule result = pin_history(request, pinned);

  for (const dag::JobId job : order) {
    if (pinned[job]) {
      continue;
    }
    grid::ResourceId best_resource = grid::kInvalidResource;
    sim::Time best_start = sim::kTimeInfinity;
    sim::Time best_finish = sim::kTimeInfinity;

    std::vector<grid::ResourceId> kept;
    if (request.restrict_to_previous && request.previous->assigned(job)) {
      kept.push_back(request.previous->assignment(job).resource);
    }

    const auto search = [&](const std::vector<grid::ResourceId>& candidates,
                            const AvailabilityView* availability) {
      for (const grid::ResourceId r : candidates) {
        const grid::Resource& machine = request.pool->resource(r);
        const sim::Time not_before = std::max(request.clock, machine.arrival);
        sim::Time ready = sim::kTimeZero;
        for (const std::uint32_t e : dag.in_edges(job)) {
          ready = std::max(ready, file_available(request, e, r, result));
        }
        const double w = est.compute_cost(job, r);
        const sim::Time start =
            result.earliest_slot(r, ready, w, request.config.slot_policy,
                                 not_before, machine.departure, availability);
        if (start == sim::kTimeInfinity) {
          continue;
        }
        const sim::Time finish = start + w;
        if (best_resource == grid::kInvalidResource ||
            (finish < best_finish && !sim::time_eq(finish, best_finish))) {
          best_resource = r;
          best_start = start;
          best_finish = finish;
        }
      }
    };

    const std::vector<grid::ResourceId>& primary =
        kept.empty() ? request.resources : kept;
    search(primary, request.availability);
    if (best_resource == grid::kInvalidResource &&
        request.availability != nullptr) {
      search(primary, nullptr);
    }
    if (best_resource == grid::kInvalidResource && !kept.empty()) {
      search(request.resources, request.availability);
      if (best_resource == grid::kInvalidResource &&
          request.availability != nullptr) {
        search(request.resources, nullptr);
      }
    }

    if (best_resource == grid::kInvalidResource &&
        request.allow_infeasible) {
      sim::Time best_departure = -sim::kTimeInfinity;
      for (const grid::ResourceId r : request.resources) {
        const grid::Resource& machine = request.pool->resource(r);
        const sim::Time not_before = std::max(request.clock, machine.arrival);
        sim::Time ready = sim::kTimeZero;
        for (const std::uint32_t e : dag.in_edges(job)) {
          ready = std::max(ready, file_available(request, e, r, result));
        }
        const double w = est.compute_cost(job, r);
        const sim::Time start =
            result.earliest_slot(r, ready, w, request.config.slot_policy,
                                 not_before, sim::kTimeInfinity, nullptr);
        const sim::Time finish = start + w;
        if (best_resource == grid::kInvalidResource ||
            machine.departure > best_departure ||
            (sim::time_eq(machine.departure, best_departure) &&
             finish < best_finish)) {
          best_resource = r;
          best_start = start;
          best_finish = finish;
          best_departure = machine.departure;
        }
      }
    }

    AHEFT_ASSERT(best_resource != grid::kInvalidResource,
                 "no feasible resource for job " + dag.job(job).name);
    result.assign(Assignment{job, best_resource, best_start, best_finish});
  }
  return result;
}

Schedule aheft(const RescheduleRequest& request) {
  const dag::Dag& dag = *request.dag;
  if (request.restrict_to_previous) {
    std::vector<dag::JobId> order(dag.job_count());
    for (dag::JobId i = 0; i < dag.job_count(); ++i) {
      order[i] = i;
    }
    const auto start_of = [&](dag::JobId job) {
      const std::optional<Assignment>& slot =
          request.previous->maybe_assignment(job);
      return slot ? slot->start : sim::kTimeInfinity;
    };
    std::sort(order.begin(), order.end(), [&](dag::JobId a, dag::JobId b) {
      const sim::Time sa = start_of(a);
      const sim::Time sb = start_of(b);
      if (sa != sb) {
        return sa < sb;
      }
      return a < b;
    });
    return schedule_in_order(request, order);
  }
  const std::vector<double> ranks =
      upward_ranks(dag, *request.estimates, request.resources);
  const std::vector<dag::JobId> order = rank_order(ranks);
  Schedule best = schedule_in_order(request, order);
  std::size_t tried = 0;
  for (std::size_t k = 0;
       k + 1 < order.size() && tried < request.config.order_candidates; ++k) {
    const dag::JobId a = order[k];
    const dag::JobId b = order[k + 1];
    const double gap = ranks[a] - ranks[b];
    const double scale = std::max(1.0, std::max(ranks[a], ranks[b]));
    if (gap > request.config.rank_tie_fraction * scale) {
      continue;
    }
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

bool nearly_equal(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-9 * scale;
}

Schedule cpop(const dag::Dag& dag, const grid::CostProvider& estimates,
              const grid::ResourcePool& pool, SchedulerConfig config,
              sim::Time clock, const AvailabilityView* availability) {
  const std::vector<grid::ResourceId> resources = pool.available_at(clock);
  const std::vector<double> up = upward_ranks(dag, estimates, resources);
  const std::vector<double> down = downward_ranks(dag, estimates, resources);
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
  const auto priority = [&](dag::JobId i) { return up[i] + down[i]; };
  const auto cmp = [&](dag::JobId a, dag::JobId b) {
    if (!nearly_equal(priority(a), priority(b))) {
      return priority(a) < priority(b);
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
  RescheduleRequest request;
  request.dag = &dag;
  request.estimates = &estimates;
  request.pool = &pool;
  request.resources = resources;
  request.clock = clock;
  request.config = config;
  request.availability = availability;

  Schedule result(dag.job_count());
  while (!ready.empty()) {
    const dag::JobId job = ready.top();
    ready.pop();
    grid::ResourceId best_resource = grid::kInvalidResource;
    sim::Time best_finish = sim::kTimeInfinity;
    sim::Time best_start = sim::kTimeInfinity;
    std::vector<grid::ResourceId> candidates;
    if (on_cp[job]) {
      candidates.push_back(cp_resource);
    } else {
      candidates = resources;
    }
    const auto search = [&](const AvailabilityView* view) {
      for (const grid::ResourceId r : candidates) {
        const grid::Resource& machine = pool.resource(r);
        sim::Time ready_time = sim::kTimeZero;
        for (const std::uint32_t e : dag.in_edges(job)) {
          ready_time =
              std::max(ready_time, file_available(request, e, r, result));
        }
        const double w = estimates.compute_cost(job, r);
        const sim::Time start = result.earliest_slot(
            r, ready_time, w, config.slot_policy,
            std::max(clock, machine.arrival), machine.departure, view);
        if (start == sim::kTimeInfinity) {
          continue;
        }
        if (best_resource == grid::kInvalidResource ||
            (start + w < best_finish &&
             !sim::time_eq(start + w, best_finish))) {
          best_resource = r;
          best_start = start;
          best_finish = start + w;
        }
      }
    };
    search(availability);
    if (best_resource == grid::kInvalidResource && availability != nullptr) {
      search(nullptr);
    }
    AHEFT_ASSERT(best_resource != grid::kInvalidResource,
                 "no feasible resource for job " + dag.job(job).name);
    result.assign(Assignment{job, best_resource, best_start, best_finish});
    for (const std::uint32_t e : dag.out_edges(job)) {
      const dag::JobId succ = dag.edges()[e].to;
      if (--pending[succ] == 0) {
        ready.push(succ);
      }
    }
  }
  return result;
}

}  // namespace reference

/// A planner's outcome: the schedule, or the infeasibility it reported.
struct Outcome {
  std::optional<Schedule> schedule;
  std::string failure;
};

template <typename Plan>
Outcome outcome_of(Plan plan) {
  try {
    return Outcome{plan(), {}};
  } catch (const AssertionError& error) {
    // Keep the reason, not the throwing file and line.
    const std::string what = error.what();
    const std::size_t at = what.find("no feasible resource");
    return Outcome{std::nullopt,
                   at == std::string::npos ? what : what.substr(at)};
  }
}

void expect_same_outcome(const Outcome& library, const Outcome& reference) {
  ASSERT_EQ(library.schedule.has_value(), reference.schedule.has_value())
      << "library: " << library.failure
      << " / reference: " << reference.failure;
  if (library.schedule) {
    test::expect_bit_identical(*library.schedule, *reference.schedule);
  } else {
    EXPECT_EQ(library.failure, reference.failure);
  }
}

/// One random planning situation: a DAG on a pool with staggered arrivals
/// and departures, an initial plan S0, and — unless `initial` — a snapshot
/// of S0 part-way through, with finished and running jobs.
struct DifferentialCase {
  explicit DifferentialCase(std::uint64_t seed) : rng(seed) {
    test::RandomCaseOptions options;
    options.jobs = 6 + rng.index(20);
    options.ccr = std::array{0.1, 1.0, 5.0}[rng.index(3)];
    options.initial_resources = 2 + rng.index(4);
    options.interval = rng.uniform(20.0, 200.0);
    options.fraction = rng.uniform(0.25, 0.75);
    options.horizon = 1500.0;
    rc.emplace(test::make_random_case(seed, options));
    grid::ResourcePool& pool = rc->pool;
    // Departures on a coarse grid, so machines often leave together and
    // the longest-survivor choice under allow_infeasible meets ties. In
    // some cases every machine leaves, so late jobs fit nowhere.
    const double departing = rng.bernoulli(0.3) ? 1.0 : 0.4;
    for (grid::ResourceId r = 0; r < pool.universe_size(); ++r) {
      if (rng.bernoulli(departing)) {
        const double grid_step = 100.0;
        const double first =
            std::floor(pool.resource(r).arrival / grid_step) + 1.0;
        pool.set_departure(
            r, grid_step * (first + static_cast<double>(rng.index(4))));
      }
    }

    config.slot_policy =
        rng.bernoulli(0.5) ? SlotPolicy::kInsertion : SlotPolicy::kEndOfQueue;
    config.running_policy = rng.bernoulli(0.5)
                                ? RunningJobPolicy::kKeepRunning
                                : RunningJobPolicy::kRestartable;
    config.transfer_policy = std::array{
        TransferPolicy::kRetransmitFromClock, TransferPolicy::kEagerReplicate,
        TransferPolicy::kPrestagedArrivals}[rng.index(3)];
    config.order_candidates = rng.index(4);

    const dag::Dag& dag = rc->workload.dag;
    RescheduleRequest first = base_request();
    first.resources = pool.available_at(0.0);
    first.allow_infeasible = true;
    s0 = aheft_schedule(first);

    initial = rng.bernoulli(0.2);
    clock = initial ? 0.0 : rng.uniform(0.05, 0.95) * s0.makespan();
    if (!initial && rng.bernoulli(0.2)) {
      // Plan exactly at a pool change: a resource arriving at the clock.
      clock = pool.resource(pool.universe_size() - 1).arrival;
    }
    resources = pool.available_at(clock);
    snapshot.emplace(clock, dag.job_count(), dag.edge_count());
    if (initial) {
      return;
    }
    for (dag::JobId i = 0; i < dag.job_count(); ++i) {
      const Assignment& slot = s0.assignment(i);
      if (slot.finish <= clock) {
        snapshot->mark_finished(i, FinishedInfo{slot.resource, slot.start,
                                                slot.finish});
        for (const std::uint32_t e : dag.out_edges(i)) {
          snapshot->record_arrival(e, slot.resource, slot.finish);
          // Some outputs were already sent on to other machines.
          for (grid::ResourceId r = 0; r < pool.universe_size(); ++r) {
            if (r != slot.resource && rng.bernoulli(0.3)) {
              snapshot->record_arrival(
                  e, r,
                  slot.finish +
                      rc->model.comm_cost(dag.edges()[e], slot.resource, r));
            }
          }
        }
      } else if (slot.start <= clock) {
        snapshot->add_running(
            RunningInfo{i, slot.resource, slot.start, slot.finish});
      }
    }
  }

  RescheduleRequest base_request() const {
    RescheduleRequest req;
    req.dag = &rc->workload.dag;
    req.estimates = &rc->model;
    req.pool = &rc->pool;
    req.config = config;
    return req;
  }

  /// Foreign load on random machines from the clock on; now and then it
  /// fills every machine, which forces the contention-blind fallback.
  AvailabilityView random_view() {
    AvailabilityView view(clock);
    if (rng.bernoulli(0.25)) {
      for (grid::ResourceId r = 0; r < rc->pool.universe_size(); ++r) {
        view.add_busy(r, clock, sim::kTimeInfinity);
      }
    }
    for (std::size_t k = 0; k < 6; ++k) {
      const auto r =
          static_cast<grid::ResourceId>(rng.index(rc->pool.universe_size()));
      const sim::Time start = clock + rng.uniform(0.0, 300.0);
      view.add_busy(r, start, start + rng.uniform(5.0, 150.0));
    }
    view.normalize();
    return view;
  }

  RngStream rng;
  std::optional<test::RandomCase> rc;
  SchedulerConfig config;
  Schedule s0;
  bool initial = false;
  sim::Time clock = sim::kTimeZero;
  std::vector<grid::ResourceId> resources;
  std::optional<ExecutionSnapshot> snapshot;
};

TEST(EftSearchDifferential, MatchesThePlainReferenceLoop) {
  std::size_t planned = 0;
  std::size_t infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DifferentialCase c(seed);
    if (c.resources.empty()) {
      continue;  // every machine is between departure and next arrival
    }
    const std::optional<AvailabilityView> view =
        c.rng.bernoulli(0.5) ? std::optional(c.random_view()) : std::nullopt;

    RescheduleRequest req = c.base_request();
    req.resources = c.resources;
    req.clock = c.clock;
    if (!c.initial) {
      req.snapshot = &*c.snapshot;
      req.previous = &c.s0;
      req.restrict_to_previous = c.rng.bernoulli(0.3);
    }
    req.availability = view ? &*view : nullptr;
    req.allow_infeasible = c.rng.bernoulli(0.5);

    const Outcome library = outcome_of([&] { return aheft_schedule(req); });
    expect_same_outcome(library,
                        outcome_of([&] { return reference::aheft(req); }));
    if (library.schedule) {
      ++planned;
    } else {
      ++infeasible;
    }

    const dag::Dag& dag = c.rc->workload.dag;
    const test::RandomCase& rc = *c.rc;
    expect_same_outcome(outcome_of([&] {
                          return cpop_schedule(dag, rc.model, rc.pool,
                                               c.config, c.clock,
                                               req.availability);
                        }),
                        outcome_of([&] {
                          return reference::cpop(dag, rc.model, rc.pool,
                                                 c.config, c.clock,
                                                 req.availability);
                        }));
  }
  // The sweep must mostly plan, not only agree on giving up.
  EXPECT_GT(planned, 150u);
  EXPECT_GT(infeasible, 0u);
}

}  // namespace
}  // namespace aheft::core
