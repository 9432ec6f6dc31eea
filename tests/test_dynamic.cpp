// Dynamic just-in-time baseline tests (Min-Min / Max-Min / Sufferage).
#include <gtest/gtest.h>

#include <optional>

#include "core/dynamic_scheduler.h"
#include "core/heft.h"
#include "helpers.h"
#include "traces/load_timeline.h"
#include "workloads/sample.h"

namespace aheft::core {
namespace {

TEST(Dynamic, RunsSampleDagToCompletion) {
  const auto scenario = workloads::sample_scenario();
  sim::TraceRecorder trace;
  const DynamicRunResult result = run_dynamic(
      scenario.dag, scenario.model, scenario.pool,
      DynamicHeuristic::kMinMin, &trace);
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_GE(result.batches, 1u);
  EXPECT_TRUE(result.schedule.complete());
  test::expect_valid_trace(trace, scenario.dag, scenario.model,
                           scenario.pool);
}

TEST(Dynamic, DeferredTransfersMakeItNoBetterThanHeft) {
  // On the worked example the just-in-time strategy cannot beat the static
  // plan: every cross-resource input waits for a decision before moving.
  const auto scenario = workloads::sample_scenario();
  const DynamicRunResult minmin =
      run_dynamic(scenario.dag, scenario.model, scenario.pool);
  const Schedule heft =
      heft_schedule(scenario.dag, scenario.model, scenario.pool);
  EXPECT_GE(minmin.makespan, heft.makespan() - sim::kTimeEpsilon);
}

TEST(Dynamic, SingleJobMatchesFastestResource) {
  dag::Dag graph;
  graph.add_job("only");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{});
  pool.add(grid::Resource{});
  grid::MachineModel model(1, 2);
  model.set_compute_cost(0, 0, 9.0);
  model.set_compute_cost(0, 1, 4.0);
  const DynamicRunResult result = run_dynamic(graph, model, pool);
  EXPECT_DOUBLE_EQ(result.makespan, 4.0);
  EXPECT_EQ(result.schedule.assignment(0).resource, 1u);
}

TEST(Dynamic, MinMinPrefersShortJobFirstOnContention) {
  // Two independent jobs, one resource: Min-Min runs the shorter first.
  dag::Dag graph;
  graph.add_job("long");
  graph.add_job("short");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{});
  grid::MachineModel model(2, 1);
  model.set_compute_cost(0, 0, 10.0);
  model.set_compute_cost(1, 0, 2.0);
  const DynamicRunResult result = run_dynamic(graph, model, pool);
  EXPECT_DOUBLE_EQ(result.schedule.assignment(1).start, 0.0);
  EXPECT_DOUBLE_EQ(result.schedule.assignment(0).start, 2.0);
  EXPECT_DOUBLE_EQ(result.makespan, 12.0);
}

TEST(Dynamic, MaxMinPrefersLongJobFirstOnContention) {
  dag::Dag graph;
  graph.add_job("long");
  graph.add_job("short");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{});
  grid::MachineModel model(2, 1);
  model.set_compute_cost(0, 0, 10.0);
  model.set_compute_cost(1, 0, 2.0);
  const DynamicRunResult result =
      run_dynamic(graph, model, pool, DynamicHeuristic::kMaxMin);
  EXPECT_DOUBLE_EQ(result.schedule.assignment(0).start, 0.0);
  EXPECT_DOUBLE_EQ(result.schedule.assignment(1).start, 10.0);
}

TEST(Dynamic, UsesResourcesThatArriveMidRun) {
  // A chain head delays two parallel successors past r2's arrival; the
  // just-in-time scheduler should exploit the newcomer.
  dag::Dag graph;
  const dag::JobId head = graph.add_job("head");
  const dag::JobId left = graph.add_job("left");
  const dag::JobId right = graph.add_job("right");
  graph.add_edge(head, left, 0.0);
  graph.add_edge(head, right, 0.0);
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "r1", .arrival = 0.0});
  pool.add(grid::Resource{.name = "r2", .arrival = 5.0});
  grid::MachineModel model(3, 2);
  for (dag::JobId i = 0; i < 3; ++i) {
    model.set_compute_cost(i, 0, 10.0);
    model.set_compute_cost(i, 1, 10.0);
  }
  const DynamicRunResult result = run_dynamic(graph, model, pool);
  // head on r1 [0,10); then left/right in parallel on r1 and r2.
  EXPECT_DOUBLE_EQ(result.makespan, 20.0);
  EXPECT_NE(result.schedule.assignment(left).resource,
            result.schedule.assignment(right).resource);
}

TEST(Dynamic, ChainPaysTransferAtDecisionTime) {
  // a -> b with data 6; two resources; b's best completion includes the
  // decision-time transfer, so same-resource execution wins.
  dag::Dag graph;
  const dag::JobId a = graph.add_job("a");
  const dag::JobId b = graph.add_job("b");
  graph.add_edge(a, b, 6.0);
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{});
  pool.add(grid::Resource{});
  grid::MachineModel model(2, 2);
  model.set_compute_cost(0, 0, 5.0);
  model.set_compute_cost(0, 1, 5.0);
  model.set_compute_cost(1, 0, 4.0);
  model.set_compute_cost(1, 1, 3.0);
  const DynamicRunResult result = run_dynamic(graph, model, pool);
  // On r0 (with a): 5 + 4 = 9. On r1: 5 + 6 (transfer from t=5) + 3 = 14.
  EXPECT_EQ(result.schedule.assignment(b).resource, 0u);
  EXPECT_DOUBLE_EQ(result.makespan, 9.0);
}

TEST(Dynamic, RejectsEmptyInitialPool) {
  dag::Dag graph;
  graph.add_job("a");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "late", .arrival = 10.0});
  grid::MachineModel model(1, 1);
  model.set_compute_cost(0, 0, 1.0);
  EXPECT_THROW(run_dynamic(graph, model, pool), std::invalid_argument);
}

TEST(Dynamic, LoadProfileStretchesRealizedRunTimes) {
  // Chain of two jobs on one machine under a uniform 2x load: decisions
  // keep using nominal costs, but the realized makespan must double —
  // the baseline now compares with HEFT/AHEFT under the same load.
  dag::Dag graph;
  graph.add_job("a");
  graph.add_job("b");
  graph.add_edge(0, 1, 0.0);
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{});
  grid::MachineModel model(2, 1);
  model.set_compute_cost(0, 0, 10.0);
  model.set_compute_cost(1, 0, 5.0);

  const DynamicRunResult nominal = run_dynamic(graph, model, pool);
  EXPECT_DOUBLE_EQ(nominal.makespan, 15.0);

  traces::LoadTimeline load;
  load.add(0, 0.0, sim::kTimeInfinity, 2.0);
  const DynamicRunResult stretched = run_dynamic(
      graph, model, pool, DynamicHeuristic::kMinMin, nullptr, &load);
  EXPECT_DOUBLE_EQ(stretched.makespan, 30.0);
  EXPECT_NE(stretched.makespan, nominal.makespan);
}

TEST(Dynamic, LoadSegmentSampledAtRealizedStart) {
  // The 2x segment covers only the second job's (delayed) start window,
  // so exactly that job stretches: 10 + 2*5 = 20.
  dag::Dag graph;
  graph.add_job("a");
  graph.add_job("b");
  graph.add_edge(0, 1, 0.0);
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{});
  grid::MachineModel model(2, 1);
  model.set_compute_cost(0, 0, 10.0);
  model.set_compute_cost(1, 0, 5.0);

  traces::LoadTimeline load;
  load.add(0, 10.0, sim::kTimeInfinity, 2.0);
  const DynamicRunResult result = run_dynamic(
      graph, model, pool, DynamicHeuristic::kMinMin, nullptr, &load);
  EXPECT_DOUBLE_EQ(result.makespan, 20.0);
}

TEST(Dynamic, SkipsMachinesThatDepartBeforeCompletion) {
  // The nominally fastest machine departs too soon; the just-in-time
  // decision must route around the announced window.
  dag::Dag graph;
  graph.add_job("a");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "fast-but-doomed", .departure = 5.0});
  pool.add(grid::Resource{.name = "slow"});
  grid::MachineModel model(1, 2);
  model.set_compute_cost(0, 0, 6.0);  // would outlive the window
  model.set_compute_cost(0, 1, 9.0);
  const DynamicRunResult result = run_dynamic(graph, model, pool);
  EXPECT_EQ(result.schedule.assignment(0).resource, 1u);
  EXPECT_DOUBLE_EQ(result.makespan, 9.0);
}

TEST(Dynamic, ReportsWhenNoMachineCanFinishBeforeDeparting) {
  dag::Dag graph;
  graph.add_job("a");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "doomed", .departure = 5.0});
  grid::MachineModel model(1, 1);
  model.set_compute_cost(0, 0, 10.0);
  EXPECT_THROW(run_dynamic(graph, model, pool), std::runtime_error);
}

TEST(Dynamic, LoadStretchOutlivingTheMachineFailsTheRunMidDispatch) {
  // Two ready jobs, one machine that leaves at 12. The first decision
  // fits nominally (10 <= 12), but the 2x load stretches the realized run
  // to 20: under resilience the run fails inside that dispatch round,
  // which must then stop instead of touching the cleared ready list.
  dag::Dag graph;
  graph.add_job("a");
  graph.add_job("b");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "short-lived", .departure = 12.0});
  grid::MachineModel model(2, 1);
  model.set_compute_cost(0, 0, 10.0);
  model.set_compute_cost(1, 0, 11.0);
  traces::LoadTimeline load;
  load.add(0, 0.0, sim::kTimeInfinity, 2.0);

  SessionEnvironment env;
  env.pool = &pool;
  env.load = &load;
  env.resilience.departure_action = resilience::DepartureAction::kFail;
  SimulationSession session(env);
  DynamicExecution execution(session, graph, model);
  std::optional<DynamicRunResult> result;
  execution.launch(sim::kTimeZero,
                   [&](const DynamicRunResult& r) { result = r; });
  session.run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->failed);
  EXPECT_EQ(result->failure_reason,
            "load-stretched job a would outlive its machine");
  EXPECT_FALSE(execution.finished());
}

TEST(Dynamic, HeuristicNames) {
  EXPECT_EQ(to_string(DynamicHeuristic::kMinMin), "min-min");
  EXPECT_EQ(to_string(DynamicHeuristic::kMaxMin), "max-min");
  EXPECT_EQ(to_string(DynamicHeuristic::kSufferage), "sufferage");
}

// ----- property sweep ------------------------------------------------------

class DynamicProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicProperty, ProducesValidExecutions) {
  const test::RandomCase c = test::make_random_case(GetParam());
  for (const auto heuristic :
       {DynamicHeuristic::kMinMin, DynamicHeuristic::kMaxMin,
        DynamicHeuristic::kSufferage}) {
    sim::TraceRecorder trace;
    const DynamicRunResult result =
        run_dynamic(c.workload.dag, c.model, c.pool, heuristic, &trace);
    EXPECT_GT(result.makespan, 0.0);
    test::expect_valid_trace(trace, c.workload.dag, c.model, c.pool);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace aheft::core
