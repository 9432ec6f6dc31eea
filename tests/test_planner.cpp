// Planner loop tests: the generic adaptive rescheduling algorithm (paper
// Fig. 2) coupled to the executor.
#include <gtest/gtest.h>

#include <utility>

#include "core/heft.h"
#include "core/strategy.h"
#include "core/planner.h"
#include "grid/predictor.h"
#include "helpers.h"
#include "workloads/sample.h"

namespace aheft::core {
namespace {

TEST(Planner, StaticRunRealizesTheInitialPlan) {
  const auto scenario = workloads::sample_scenario(15.0);
  SessionEnvironment env;
  env.pool = &scenario.pool;
  const StrategyOutcome outcome =
      run_strategy(StrategyKind::kStaticHeft, scenario.dag, scenario.model,
                   scenario.model, env);
  EXPECT_DOUBLE_EQ(outcome.makespan, 80.0);
  EXPECT_EQ(outcome.adoptions, 0u);
  EXPECT_EQ(outcome.evaluations, 0u);
}

TEST(Planner, Fig5AdoptionRealizesPublished76) {
  const auto scenario = workloads::sample_scenario(15.0);
  PlannerConfig config;
  config.scheduler.order_candidates = 8;  // see DESIGN.md: one tie swap
  const StrategyOutcome result = test::run_aheft(
      scenario.dag, scenario.model, scenario.model, scenario.pool, config);
  EXPECT_DOUBLE_EQ(result.initial_makespan, 80.0);
  EXPECT_DOUBLE_EQ(result.makespan, 76.0);
  EXPECT_EQ(result.adoptions, 1u);
  EXPECT_EQ(result.evaluations, 1u);
  ASSERT_EQ(result.decisions.size(), 1u);
  EXPECT_TRUE(result.decisions[0].adopted);
  EXPECT_DOUBLE_EQ(result.decisions[0].time, 15.0);
  EXPECT_DOUBLE_EQ(result.decisions[0].current_makespan, 80.0);
  EXPECT_DOUBLE_EQ(result.decisions[0].candidate_makespan, 76.0);
  EXPECT_EQ(result.decisions[0].event, "resource-arrival");
}

TEST(Planner, StrictTransfersDeclineNonImprovingReschedule) {
  const auto scenario = workloads::sample_scenario(15.0);
  PlannerConfig config;
  config.scheduler.transfer_policy = TransferPolicy::kRetransmitFromClock;
  const StrategyOutcome result = test::run_aheft(
      scenario.dag, scenario.model, scenario.model, scenario.pool, config);
  EXPECT_DOUBLE_EQ(result.makespan, 80.0);
  EXPECT_EQ(result.adoptions, 0u);
  EXPECT_EQ(result.evaluations, 1u);
  ASSERT_EQ(result.decisions.size(), 1u);
  EXPECT_FALSE(result.decisions[0].adopted);
}

TEST(Planner, AdoptionThresholdSuppressesSmallGains) {
  const auto scenario = workloads::sample_scenario(15.0);
  PlannerConfig config;
  config.scheduler.order_candidates = 8;
  config.scheduler.adoption_threshold = 0.10;  // demand >10% improvement
  const StrategyOutcome result = test::run_aheft(
      scenario.dag, scenario.model, scenario.model, scenario.pool, config);
  // 76 is only a 5% improvement over 80: rejected under the threshold.
  EXPECT_DOUBLE_EQ(result.makespan, 80.0);
  EXPECT_EQ(result.adoptions, 0u);
}

TEST(Planner, EventPerPoolChange) {
  const auto c = test::make_random_case(1234);
  PlannerConfig config;
  const StrategyOutcome result =
      test::run_aheft(c.workload.dag, c.model, c.model, c.pool, config);
  // Every arrival before completion is evaluated; none after.
  const auto changes =
      c.pool.change_times(sim::kTimeZero, result.makespan);
  EXPECT_LE(result.evaluations, changes.size());
  EXPECT_EQ(result.decisions.size(), result.evaluations);
}

TEST(Planner, ResourceDepartureForcesAdoption) {
  // r1 departs at t=7, too early for the chain a -> b to finish there, so
  // the initial plan already routes b to r2; the departure event then
  // forces a (no-op) adoption while b is mid-execution on r2.
  dag::Dag graph;
  const dag::JobId a = graph.add_job("a");
  const dag::JobId b = graph.add_job("b");
  graph.add_edge(a, b, 1.0);
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "r1", .arrival = 0.0});
  pool.add(grid::Resource{.name = "r2", .arrival = 0.0});
  pool.set_departure(0, 7.0);
  grid::MachineModel model(2, 2);
  model.set_compute_cost(a, 0, 5.0);
  model.set_compute_cost(a, 1, 6.0);
  model.set_compute_cost(b, 0, 5.0);
  model.set_compute_cost(b, 1, 20.0);

  const StrategyOutcome result = test::run_aheft(graph, model, model, pool);
  ASSERT_FALSE(result.decisions.empty());
  EXPECT_TRUE(result.decisions.back().forced);
  EXPECT_EQ(result.decisions.back().event, "resource-departure");
  EXPECT_GE(result.adoptions, 1u);
  // b cannot fit on r1 before its departure, so it runs on r2.
  EXPECT_EQ(result.schedule.assignment(b).resource, 1u);
  EXPECT_DOUBLE_EQ(result.makespan, 26.0);  // 5 + 1 (transfer) + 20
}

TEST(Planner, HistoryRepositoryCollectsActuals) {
  const auto scenario = workloads::sample_scenario(15.0);
  grid::PerformanceHistoryRepository history;
  SessionEnvironment env = test::solo_environment(scenario.pool);
  env.history = &history;
  (void)run_strategy(StrategyKind::kAdaptiveAheft, scenario.dag,
                     scenario.model, scenario.model, env);
  EXPECT_EQ(history.total_observations(), 10u);
  // All sample jobs share one operation; r3 ran n1 (9), n3 (19), ...
  EXPECT_TRUE(history.estimate("sample", 2).has_value());
}

TEST(Planner, VarianceEventsTriggerEvaluations) {
  const auto c = test::make_random_case(777);
  // Estimates are 30% off from reality: the monitor should fire.
  const grid::NoisyPredictor estimates(c.model, 0.30, 99);
  PlannerConfig config;
  config.react_to_pool_changes = false;
  config.react_to_variance = true;
  config.variance_threshold = 0.05;
  const StrategyOutcome result =
      test::run_aheft(c.workload.dag, estimates, c.model, c.pool, config);
  EXPECT_GT(result.evaluations, 0u);
  for (const AdoptionRecord& record : result.decisions) {
    EXPECT_EQ(record.event, "performance-variance");
  }
}

TEST(Planner, NoVarianceEventsUnderPerfectPrediction) {
  const auto c = test::make_random_case(778);
  PlannerConfig config;
  config.react_to_pool_changes = false;
  config.react_to_variance = true;
  config.variance_threshold = 0.05;
  const StrategyOutcome result =
      test::run_aheft(c.workload.dag, c.model, c.model, c.pool, config);
  EXPECT_EQ(result.evaluations, 0u);
}

// ----- contention-aware planning ------------------------------------------

TEST(Planner, ContentionAwareSoloMatchesBlindAndStampsFreshSnapshots) {
  // A solo session's ledger carries no foreign load, so the availability
  // view is always empty and the contention-aware run must realize the
  // exact blind outcome — while still stamping every decision with a
  // fresh snapshot time.
  const auto scenario = workloads::sample_scenario(15.0);
  PlannerConfig blind;
  blind.scheduler.order_candidates = 8;
  PlannerConfig aware = blind;
  aware.contention_aware = true;

  const StrategyOutcome a = test::run_aheft(
      scenario.dag, scenario.model, scenario.model, scenario.pool, blind);
  const StrategyOutcome b = test::run_aheft(
      scenario.dag, scenario.model, scenario.model, scenario.pool, aware);

  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(b.makespan, 76.0);
  EXPECT_EQ(a.adoptions, b.adoptions);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.decisions[i].candidate_makespan,
                     b.decisions[i].candidate_makespan);
    EXPECT_EQ(a.decisions[i].adopted, b.decisions[i].adopted);
    // Blind decisions carry no snapshot; aware decisions carry one taken
    // at the evaluation instant.
    EXPECT_DOUBLE_EQ(a.decisions[i].view_snapshot, -1.0);
    EXPECT_DOUBLE_EQ(b.decisions[i].view_snapshot, b.decisions[i].time);
  }
}

TEST(Planner, ReEvaluationSnapshotsAreFresh) {
  // Two identical workflows contend in one session; the second releases
  // mid-flight of the first. Every planner evaluation in the shared run
  // must re-snapshot the ledger at its own instant — a reused (stale)
  // view would surface as view_snapshot != time.
  const auto c = test::make_random_case(4242);
  SessionEnvironment env;
  env.pool = &c.pool;
  PlannerConfig config;
  config.contention_aware = true;

  SimulationSession session(env);
  AdaptivePlanner first(c.workload.dag, c.model, c.model, config);
  AdaptivePlanner second(c.workload.dag, c.model, c.model, config);
  StrategyOutcome first_result;
  StrategyOutcome second_result;
  bool first_done = false;
  bool second_done = false;
  first.launch(session, sim::kTimeZero, [&](StrategyOutcome r) {
    first_result = std::move(r);
    first_done = true;
  });
  second.launch(session, 25.0, [&](StrategyOutcome r) {
    second_result = std::move(r);
    second_done = true;
  });
  session.run();
  ASSERT_TRUE(first_done);
  ASSERT_TRUE(second_done);

  std::size_t stamped = 0;
  for (const StrategyOutcome* result : {&first_result, &second_result}) {
    for (const AdoptionRecord& record : result->decisions) {
      EXPECT_DOUBLE_EQ(record.view_snapshot, record.time);
      ++stamped;
    }
  }
  // The volatile pool guarantees evaluations actually happened.
  EXPECT_GT(stamped, 0u);
}

TEST(Planner, ContentionAwarePlansRouteAroundForeignLoad) {
  // One machine, one competitor occupying it over [0, 50): a blind plan
  // believes the machine is free and predicts an immediate start; a
  // contention-aware plan prices the committed window and predicts the
  // realized post-window start.
  dag::Dag graph;
  const dag::JobId only = graph.add_job("only");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "r1", .arrival = 0.0});
  grid::MachineModel model(1, 1);
  model.set_compute_cost(only, 0, 10.0);

  class Occupier final : public SessionParticipant {};

  for (const bool aware : {false, true}) {
    SessionEnvironment env;
    env.pool = &pool;
    SimulationSession session(env);
    Occupier occupier;
    session.add_participant(&occupier);
    (void)session.acquire(&occupier, 0, 0.0, 50.0, /*tag=*/1);
    session.commit(&occupier, 0, /*tag=*/1, 0.0, 50.0);

    PlannerConfig config;
    config.contention_aware = aware;
    AdaptivePlanner planner(graph, model, model, config);
    StrategyOutcome result;
    bool done = false;
    planner.launch(session, sim::kTimeZero, [&](StrategyOutcome r) {
      result = std::move(r);
      done = true;
    });
    session.run();
    ASSERT_TRUE(done);
    // Both runs realize the same post-window start (FCFS serializes
    // them), but only the aware plan predicted it.
    EXPECT_DOUBLE_EQ(result.makespan, 60.0);
    EXPECT_DOUBLE_EQ(result.initial_makespan, aware ? 60.0 : 10.0);
  }
}

// ----- the paper's core guarantee, as a property sweep --------------------

struct SweepParam {
  std::uint64_t seed;
  double ccr;
  std::size_t jobs;
};

class PlannerProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PlannerProperty, AheftNeverWorseThanHeftAndRealizesPrediction) {
  const SweepParam param = GetParam();
  test::RandomCaseOptions options;
  options.jobs = param.jobs;
  options.ccr = param.ccr;
  const test::RandomCase c = test::make_random_case(param.seed, options);

  const Schedule heft = heft_schedule(c.workload.dag, c.model, c.pool);
  PlannerConfig config;
  const StrategyOutcome result =
      test::run_aheft(c.workload.dag, c.model, c.model, c.pool, config);

  // Initial plan matches static HEFT.
  EXPECT_NEAR(result.initial_makespan, heft.makespan(), 1e-9);
  // Adaptive rescheduling adopts only strict improvements, so under
  // accurate estimates the realized makespan never exceeds static HEFT.
  EXPECT_LE(result.makespan, heft.makespan() + 1e-6);
  // Each adopted reschedule's prediction is realized exactly.
  if (!result.decisions.empty()) {
    sim::Time last_adopted = result.initial_makespan;
    for (const AdoptionRecord& record : result.decisions) {
      if (record.adopted) {
        EXPECT_LT(record.candidate_makespan, record.current_makespan);
        last_adopted = record.candidate_makespan;
      }
    }
    EXPECT_NEAR(result.makespan, last_adopted, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlannerProperty,
    ::testing::Values(SweepParam{1, 0.1, 20}, SweepParam{2, 1.0, 20},
                      SweepParam{3, 10.0, 20}, SweepParam{4, 0.1, 60},
                      SweepParam{5, 1.0, 60}, SweepParam{6, 10.0, 60},
                      SweepParam{7, 5.0, 40}, SweepParam{8, 0.5, 80},
                      SweepParam{9, 1.0, 100}, SweepParam{10, 5.0, 100}));

}  // namespace
}  // namespace aheft::core
