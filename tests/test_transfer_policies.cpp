// Transfer-policy semantics: both file-movement models must behave
// identically in the planner's FEA and in the executor, and the realized
// makespan must match the adopted prediction under every model.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/execution_engine.h"
#include "core/heft.h"
#include "core/strategy.h"
#include "core/rescheduler.h"
#include "helpers.h"
#include "sim/simulator.h"
#include "workloads/sample.h"

namespace aheft::core {
namespace {

/// Producer a (cost 5, on r1) feeds b (data 10). A filler job occupies r0
/// so b — scheduled behind it — is still pending when the test reschedules
/// b onto r2. The edge a->b is edge index 0.
struct MoveFixture {
  explicit MoveFixture(double filler_cost, sim::Time r2_arrival)
      : model(3, 3) {
    a = graph.add_job("a");
    b = graph.add_job("b");
    filler = graph.add_job("filler");
    graph.add_edge(a, b, 10.0);
    graph.finalize();
    pool.add(grid::Resource{});                            // r0
    pool.add(grid::Resource{});                            // r1
    pool.add(grid::Resource{.name = "", .arrival = r2_arrival});  // r2
    for (grid::ResourceId r = 0; r < 3; ++r) {
      model.set_compute_cost(a, r, 5.0);
      model.set_compute_cost(b, r, 5.0);
      model.set_compute_cost(filler, r, filler_cost);
    }
    filler_cost_ = filler_cost;
  }

  /// Initial plan: filler r0 [0,F), a r1 [0,5), b r0 [F, F+5).
  [[nodiscard]] Schedule initial_plan() const {
    Schedule plan(3);
    plan.assign(Assignment{filler, 0, 0.0, filler_cost_});
    plan.assign(Assignment{a, 1, 0.0, 5.0});
    plan.assign(Assignment{b, 0, filler_cost_, filler_cost_ + 5.0});
    return plan;
  }

  /// Runs to `clock`, then reschedules b onto r2 starting at `b_start`.
  /// Returns b's realized start time.
  sim::Time move_b_to_r2(TransferPolicy policy, sim::Time clock,
                         sim::Time b_start) {
    SimulationSession session(test::solo_environment(pool));
    ExecutionEngine engine(session, graph, model);
    engine.set_transfer_policy(policy);
    engine.submit(initial_plan());
    session.simulator().run_until(clock);

    Schedule moved(3);
    moved.assign(Assignment{filler, 0, 0.0, filler_cost_});
    moved.assign(Assignment{a, 1, 0.0, 5.0});
    moved.assign(Assignment{b, 2, b_start, b_start + 5.0});
    engine.submit(moved);
    session.run();
    EXPECT_TRUE(engine.finished());
    const ExecutionSnapshot end = engine.snapshot();
    return end.finished_info(b).ast;
  }

  dag::Dag graph;
  grid::ResourcePool pool;
  grid::MachineModel model;
  dag::JobId a{};
  dag::JobId b{};
  dag::JobId filler{};
  double filler_cost_ = 0.0;
};

TEST(TransferPolicies, StrictMoveWaitsForRetransmissionFromClock) {
  MoveFixture fx(30.0, 0.0);
  // a finished at 5 on r1; b moves to r2 at clock 20: the copy leaves at
  // 20 and lands at 30.
  EXPECT_DOUBLE_EQ(
      fx.move_b_to_r2(TransferPolicy::kRetransmitFromClock, 20.0, 30.0),
      30.0);
}

TEST(TransferPolicies, PrestagedMoveUsesTheProductionTimeCopy) {
  MoveFixture fx(30.0, 0.0);
  // The copy left r1 at AFT=5 and reached r2 at 15; b starts at the
  // reschedule clock.
  EXPECT_DOUBLE_EQ(
      fx.move_b_to_r2(TransferPolicy::kPrestagedArrivals, 20.0, 20.0),
      20.0);
}

TEST(TransferPolicies, LateResourceJoinsHoldingThePrestagedCopy) {
  // r2 joins at t=50, long after a finished at 5. The machine joins
  // already holding the file (staging counted from production), so b can
  // start at the reschedule clock 55.
  MoveFixture fx(60.0, 50.0);
  EXPECT_DOUBLE_EQ(
      fx.move_b_to_r2(TransferPolicy::kPrestagedArrivals, 55.0, 55.0),
      55.0);
}

TEST(TransferPolicies, FeaMatchesTheFileAvailabilityPerPolicy) {
  for (const auto& [policy, expected] :
       {std::pair{TransferPolicy::kRetransmitFromClock, 30.0},
        std::pair{TransferPolicy::kPrestagedArrivals, 15.0}}) {
    MoveFixture fx(30.0, 0.0);
    SimulationSession session(test::solo_environment(fx.pool));
    ExecutionEngine engine(session, fx.graph, fx.model);
    engine.set_transfer_policy(policy);
    engine.submit(fx.initial_plan());
    session.simulator().run_until(20.0);
    const ExecutionSnapshot snap = engine.snapshot();

    RescheduleRequest req;
    req.dag = &fx.graph;
    req.estimates = &fx.model;
    req.pool = &fx.pool;
    req.resources = {0, 1, 2};
    req.clock = 20.0;
    req.snapshot = &snap;
    req.previous = &engine.current_schedule();
    req.config.transfer_policy = policy;

    Schedule s1(3);
    EftSearch search(req, s1);
    search.resolve(fx.b);  // b's one input is a -> b
    EXPECT_DOUBLE_EQ(search.ready(2), expected) << static_cast<int>(policy);
  }
}

TEST(TransferPolicies, AdoptedPredictionRealizedUnderEveryPolicy) {
  for (const TransferPolicy policy :
       {TransferPolicy::kRetransmitFromClock,
        TransferPolicy::kPrestagedArrivals}) {
    for (const std::uint64_t seed : {61u, 62u, 63u}) {
      const test::RandomCase c = test::make_random_case(seed);
      StrategyConfig strategy;
      strategy.planner.scheduler.transfer_policy = policy;
      sim::TraceRecorder trace;
      const StrategyOutcome result = run_strategy(
          StrategyKind::kAdaptiveAheft, c.workload.dag, c.model, c.model,
          test::solo_environment(c.pool, &trace), strategy);
      // Realized == last adopted prediction, and never worse than HEFT.
      sim::Time last = result.initial_makespan;
      for (const AdoptionRecord& record : result.decisions) {
        if (record.adopted) {
          last = record.candidate_makespan;
        }
      }
      EXPECT_NEAR(result.makespan, last, 1e-6)
          << static_cast<int>(policy) << " seed " << seed;
      EXPECT_LE(result.makespan, result.initial_makespan + 1e-6);
      test::expect_valid_trace(trace, c.workload.dag, c.model, c.pool);
    }
  }
}

TEST(TransferPolicies, PrestagedNeverPredictsLaterAvailability) {
  // For any finished producer and any target, availability under
  // prestaged arrivals is never later than under the strict policy: per
  // in-edge (Eq. 1, test::file_available), and in EftSearch::ready, which
  // must be the max of those per-edge values, for every job with a
  // finished input.
  const test::RandomCase c = test::make_random_case(77);
  const Schedule plan = heft_schedule(c.workload.dag, c.model, c.pool);
  SimulationSession session(test::solo_environment(c.pool));
  ExecutionEngine engine(session, c.workload.dag, c.model);
  engine.submit(plan);
  session.simulator().run_until(plan.makespan() / 2.0);
  const ExecutionSnapshot snap = engine.snapshot();

  RescheduleRequest req;
  req.dag = &c.workload.dag;
  req.estimates = &c.model;
  req.pool = &c.pool;
  req.resources = c.pool.available_at(snap.clock());
  req.clock = snap.clock();
  req.snapshot = &snap;
  req.previous = &engine.current_schedule();
  RescheduleRequest prestaged = req;
  prestaged.config.transfer_policy = TransferPolicy::kPrestagedArrivals;

  // S1 with every unfinished job on its planned slot, so a job with a
  // running or unplaced producer is compared too.
  const dag::Dag& dag = c.workload.dag;
  Schedule s1(dag.job_count());
  for (dag::JobId job = 0; job < dag.job_count(); ++job) {
    if (!snap.finished(job)) {
      s1.assign(plan.assignment(job));
    }
  }
  const auto finished_input = [&](std::uint32_t e) {
    return snap.finished(dag.edges()[e].from);
  };

  std::size_t edges = 0;
  for (std::uint32_t e = 0; e < dag.edge_count(); ++e) {
    if (!finished_input(e)) {
      continue;
    }
    for (const grid::ResourceId r : req.resources) {
      EXPECT_LE(test::file_available(prestaged, e, r, s1),
                test::file_available(req, e, r, s1) + 1e-9);
      ++edges;
    }
  }

  EftSearch strict_search(req, s1);
  EftSearch prestaged_search(prestaged, s1);
  std::size_t jobs = 0;
  std::size_t frontier = 0;  // jobs with finished and unfinished producers
  for (dag::JobId job = 0; job < dag.job_count(); ++job) {
    const auto inputs = dag.in_edges(job);
    const auto finished = static_cast<std::size_t>(
        std::count_if(inputs.begin(), inputs.end(), finished_input));
    if (finished == 0) {
      continue;
    }
    ++jobs;
    frontier += finished < inputs.size() ? 1 : 0;
    strict_search.resolve(job);
    prestaged_search.resolve(job);
    for (const grid::ResourceId r : req.resources) {
      sim::Time strict = sim::kTimeZero;
      sim::Time staged = sim::kTimeZero;
      for (const std::uint32_t e : inputs) {
        strict = std::max(strict, test::file_available(req, e, r, s1));
        staged = std::max(staged, test::file_available(prestaged, e, r, s1));
      }
      EXPECT_EQ(strict_search.ready(r), strict);
      EXPECT_EQ(prestaged_search.ready(r), staged);
      EXPECT_LE(prestaged_search.ready(r), strict_search.ready(r) + 1e-9);
    }
  }
  EXPECT_GT(edges, 0u);
  EXPECT_GT(jobs, 0u);
  EXPECT_GT(frontier, 0u);
}

}  // namespace
}  // namespace aheft::core
