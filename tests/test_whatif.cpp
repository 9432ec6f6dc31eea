// What-if query tests (paper §3.3's proactive evaluation extension).
#include <gtest/gtest.h>

#include "core/execution_engine.h"
#include "core/strategy.h"
#include "core/heft.h"
#include "core/whatif.h"
#include "helpers.h"
#include "sim/simulator.h"
#include "workloads/sample.h"

namespace aheft::core {
namespace {

class WhatIf : public ::testing::Test {
 protected:
  void run_to(sim::Time t) {
    plan_ = heft_schedule(scenario_.dag, scenario_.model, scenario_.pool);
    engine_.submit(plan_);
    session_.simulator().run_until(t);
    snapshot_ = engine_.snapshot();
  }

  workloads::SampleScenario scenario_ = workloads::sample_scenario(1e9);
  SimulationSession session_{test::solo_environment(scenario_.pool)};
  ExecutionEngine engine_{session_, scenario_.dag, scenario_.model};
  Schedule plan_;
  ExecutionSnapshot snapshot_ = ExecutionSnapshot::initial(10, 15);
};

TEST_F(WhatIf, CurrentPredictionCannotBeatThePlanUnderNoChange) {
  run_to(15.0);
  SchedulerConfig config;
  config.order_candidates = 8;
  const WhatIfAnalyzer analyzer(scenario_.dag, scenario_.model,
                                scenario_.pool, config);
  // No new resources: continuing the current plan is already EFT-greedy
  // optimal for this DAG, so the prediction equals the plan.
  EXPECT_NEAR(analyzer.predict_current(snapshot_, plan_), 80.0, 1e-9);
}

TEST_F(WhatIf, AddingR4NowPredictsTheFig5Improvement) {
  run_to(15.0);
  SchedulerConfig config;
  config.order_candidates = 8;
  const WhatIfAnalyzer analyzer(scenario_.dag, scenario_.model,
                                scenario_.pool, config);
  // "What if r4 joined right now (t=15)?" — exactly Fig. 5(b): 76.
  EXPECT_NEAR(analyzer.predict_with_added(snapshot_, plan_, 3), 76.0, 1e-9);
}

TEST_F(WhatIf, AddedPredictionMatchesRealizedOutcome) {
  run_to(15.0);
  SchedulerConfig config;
  config.order_candidates = 8;
  const WhatIfAnalyzer analyzer(scenario_.dag, scenario_.model,
                                scenario_.pool, config);
  const sim::Time predicted =
      analyzer.predict_with_added(snapshot_, plan_, 3);

  // Make the hypothesis come true in a separate co-simulation: r4 really
  // arrives at t=15 and the planner (same config) reacts.
  const auto real = workloads::sample_scenario(15.0);
  PlannerConfig planner_config;
  planner_config.scheduler = config;
  EXPECT_NEAR(test::run_aheft(real.dag, real.model, real.model, real.pool,
                              planner_config)
                  .makespan,
              predicted, 1e-9);
}

TEST_F(WhatIf, RemovingAResourceNeverImprovesPrediction) {
  run_to(15.0);
  const WhatIfAnalyzer analyzer(scenario_.dag, scenario_.model,
                                scenario_.pool);
  const sim::Time baseline = analyzer.predict_current(snapshot_, plan_);
  for (const grid::ResourceId r : {0u, 1u}) {
    EXPECT_GE(analyzer.predict_with_removed(snapshot_, plan_, r) + 1e-9,
              baseline);
  }
}

TEST_F(WhatIf, RemovingTheBusiestResourceForcesMigration) {
  run_to(15.0);
  const WhatIfAnalyzer analyzer(scenario_.dag, scenario_.model,
                                scenario_.pool);
  // r3 hosts the running n3 and most future work: losing it must hurt.
  const sim::Time without_r3 =
      analyzer.predict_with_removed(snapshot_, plan_, 2);
  EXPECT_GT(without_r3, 80.0);
}

TEST_F(WhatIf, ValidatesArguments) {
  run_to(15.0);
  const WhatIfAnalyzer analyzer(scenario_.dag, scenario_.model,
                                scenario_.pool);
  // r1 is visible: cannot be "added"; r4 is not visible: cannot be removed.
  EXPECT_THROW((void)analyzer.predict_with_added(snapshot_, plan_, 0),
               std::invalid_argument);
  EXPECT_THROW((void)analyzer.predict_with_removed(snapshot_, plan_, 3),
               std::invalid_argument);
}

TEST(WhatIfProperty, AddingAResourceNeverHurtsPrediction) {
  for (const std::uint64_t seed : {31u, 32u, 33u, 34u}) {
    test::RandomCaseOptions options;
    options.initial_resources = 4;
    options.interval = 1e8;  // no scheduled arrivals
    test::RandomCase c = test::make_random_case(seed, options);
    // Hold resource 3 back so it can serve as the what-if hypothesis.
    c.pool.set_arrival(3, 1e9);
    const Schedule plan = heft_schedule(c.workload.dag, c.model, c.pool);

    SimulationSession session(test::solo_environment(c.pool));
    ExecutionEngine engine(session, c.workload.dag, c.model);
    engine.submit(plan);
    session.simulator().run_until(plan.makespan() / 3.0);
    const ExecutionSnapshot snap = engine.snapshot();

    const WhatIfAnalyzer analyzer(c.workload.dag, c.model, c.pool);
    const sim::Time current = analyzer.predict_current(snap, plan);
    // Universe resources beyond the initial 3 have not arrived yet.
    const sim::Time with_extra =
        analyzer.predict_with_added(snap, plan, 3);
    EXPECT_LE(with_extra, current + 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace aheft::core
