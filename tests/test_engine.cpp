// Execution-engine tests: faithful replay, mid-run snapshots, schedule
// replacement semantics, file-transfer bookkeeping.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/execution_engine.h"
#include "core/heft.h"
#include "helpers.h"
#include "sim/simulator.h"
#include "support/assert.h"
#include "workloads/sample.h"

namespace aheft::core {
namespace {

// ----- the snapshot's flat arrival table ----------------------------------

TEST(SnapshotArrivals, KeepsSeveralTargetsPerEdge) {
  ExecutionSnapshot snap(0.0, 3, 2);
  snap.record_arrival(0, 4, 9.0);  // the producer's own machine
  snap.record_arrival(0, 1, 27.0);
  snap.record_arrival(0, 7, 30.0);
  snap.record_arrival(1, 2, 5.0);
  EXPECT_EQ(snap.arrival(0, 4), std::optional<sim::Time>(9.0));
  EXPECT_EQ(snap.arrival(0, 1), std::optional<sim::Time>(27.0));
  EXPECT_EQ(snap.arrival(0, 7), std::optional<sim::Time>(30.0));
  EXPECT_EQ(snap.arrival(1, 2), std::optional<sim::Time>(5.0));
  // Each edge reads only its own arrivals.
  EXPECT_FALSE(snap.arrival(1, 4).has_value());
  EXPECT_FALSE(snap.arrival(0, 2).has_value());
}

TEST(SnapshotArrivals, ReRecordingKeepsTheEarlierTime) {
  ExecutionSnapshot snap(0.0, 2, 1);
  snap.record_arrival(0, 0, 9.0);
  snap.record_arrival(0, 3, 20.0);
  snap.record_arrival(0, 0, 12.0);  // later: ignored
  snap.record_arrival(0, 3, 15.0);  // earlier: kept
  snap.record_arrival(0, 3, 18.0);
  EXPECT_EQ(snap.arrival(0, 0), std::optional<sim::Time>(9.0));
  EXPECT_EQ(snap.arrival(0, 3), std::optional<sim::Time>(15.0));
}

TEST(SnapshotArrivals, UnknownResourceReadsAbsent) {
  ExecutionSnapshot snap(0.0, 2, 1);
  EXPECT_FALSE(snap.arrival(0, 0).has_value());  // nothing recorded yet
  snap.record_arrival(0, 2, 4.0);
  EXPECT_FALSE(snap.arrival(0, 0).has_value());
  EXPECT_FALSE(snap.arrival(0, grid::kInvalidResource).has_value());
}

TEST(SnapshotArrivals, CopyIsIndependentOfLaterRecords) {
  ExecutionSnapshot snap(0.0, 3, 2);
  snap.record_arrival(0, 0, 9.0);
  snap.record_arrival(0, 1, 20.0);
  const ExecutionSnapshot copy = snap;
  snap.record_arrival(0, 1, 11.0);
  snap.record_arrival(0, 2, 25.0);
  snap.record_arrival(1, 0, 30.0);
  EXPECT_EQ(copy.arrival(0, 1), std::optional<sim::Time>(20.0));
  EXPECT_FALSE(copy.arrival(0, 2).has_value());
  EXPECT_FALSE(copy.arrival(1, 0).has_value());
  EXPECT_EQ(snap.arrival(0, 1), std::optional<sim::Time>(11.0));
  EXPECT_EQ(snap.arrival(0, 2), std::optional<sim::Time>(25.0));
}

TEST(SnapshotArrivals, OutOfRangeEdgeThrows) {
  ExecutionSnapshot snap(0.0, 2, 1);
  EXPECT_THROW(snap.record_arrival(1, 0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)snap.arrival(1, 0), std::invalid_argument);
}

TEST(Engine, ReplaysHeftScheduleExactly) {
  const auto scenario = workloads::sample_scenario();
  const Schedule plan =
      heft_schedule(scenario.dag, scenario.model, scenario.pool);
  sim::TraceRecorder trace;
  SimulationSession session(test::solo_environment(scenario.pool, &trace));
  ExecutionEngine engine(session, scenario.dag, scenario.model);
  engine.submit(plan);
  session.run();
  ASSERT_TRUE(engine.finished());
  EXPECT_DOUBLE_EQ(engine.makespan(), 80.0);
  EXPECT_EQ(engine.counters().restarts, 0u);

  // Every compute interval matches the plan.
  const auto computes = trace.sorted(sim::IntervalKind::kCompute);
  ASSERT_EQ(computes.size(), 10u);
  for (const auto& interval : computes) {
    const Assignment& a = plan.assignment(interval.job);
    EXPECT_EQ(interval.resource, a.resource);
    EXPECT_DOUBLE_EQ(interval.start, a.start);
    EXPECT_DOUBLE_EQ(interval.end, a.finish);
  }
  test::expect_valid_trace(trace, scenario.dag, scenario.model,
                           scenario.pool);
}

TEST(Engine, RecordsCrossResourceTransfers) {
  const auto scenario = workloads::sample_scenario();
  const Schedule plan =
      heft_schedule(scenario.dag, scenario.model, scenario.pool);
  sim::TraceRecorder trace;
  SimulationSession session(test::solo_environment(scenario.pool, &trace));
  ExecutionEngine engine(session, scenario.dag, scenario.model);
  engine.submit(plan);
  session.run();
  const auto transfers = trace.sorted(sim::IntervalKind::kTransfer);
  // n1 (r3) feeds n2 (r1) and n4, n6 (r2): at least those transfers exist.
  EXPECT_GE(transfers.size(), 3u);
  for (const auto& t : transfers) {
    EXPECT_LT(t.start, t.end);  // real links take time in this scenario
  }
}

TEST(Engine, SnapshotMidRunMatchesReality) {
  const auto scenario = workloads::sample_scenario();
  const Schedule plan =
      heft_schedule(scenario.dag, scenario.model, scenario.pool);
  SimulationSession session(test::solo_environment(scenario.pool));
  ExecutionEngine engine(session, scenario.dag, scenario.model);
  engine.submit(plan);
  session.simulator().run_until(30.0);
  const ExecutionSnapshot snap = engine.snapshot();
  EXPECT_DOUBLE_EQ(snap.clock(), 30.0);
  // By t=30: n1 [0,9) and n3 [9,28) finished on r3; n4 [18,26) on r2.
  EXPECT_TRUE(snap.finished(0));
  EXPECT_TRUE(snap.finished(2));
  EXPECT_TRUE(snap.finished(3));
  EXPECT_EQ(snap.finished_count(), 3u);
  // n2 [27,40) and n5 [28,38) and n6 [26,42) are running.
  EXPECT_TRUE(snap.running_info(1).has_value());
  EXPECT_TRUE(snap.running_info(4).has_value());
  EXPECT_TRUE(snap.running_info(5).has_value());
  EXPECT_DOUBLE_EQ(snap.running_info(1)->expected_finish, 40.0);
  // n1 -> n2 transfer (edge 0) reached r1 at 9 + 18 = 27.
  ASSERT_TRUE(snap.arrival(0, 0).has_value());
  EXPECT_DOUBLE_EQ(*snap.arrival(0, 0), 27.0);
  ASSERT_TRUE(snap.arrival(0, 2).has_value());  // copy kept at the producer
  EXPECT_DOUBLE_EQ(*snap.arrival(0, 2), 9.0);
}

TEST(Engine, ResubmittingSamePlanIsANoop) {
  const auto scenario = workloads::sample_scenario();
  const Schedule plan =
      heft_schedule(scenario.dag, scenario.model, scenario.pool);
  SimulationSession session(test::solo_environment(scenario.pool));
  ExecutionEngine engine(session, scenario.dag, scenario.model);
  engine.submit(plan);
  session.simulator().run_until(30.0);
  engine.submit(plan);  // identical plan: nothing restarts
  session.run();
  EXPECT_DOUBLE_EQ(engine.makespan(), 80.0);
  EXPECT_EQ(engine.counters().restarts, 0u);
}

TEST(Engine, ReplacementMovesPendingJob) {
  // Two independent jobs on one resource; the replacement moves the second
  // job to a second resource.
  dag::Dag graph;
  const dag::JobId a = graph.add_job("a");
  const dag::JobId b = graph.add_job("b");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{});
  pool.add(grid::Resource{});
  grid::MachineModel model(2, 2);
  for (dag::JobId i = 0; i < 2; ++i) {
    for (grid::ResourceId r = 0; r < 2; ++r) {
      model.set_compute_cost(i, r, 10.0);
    }
  }
  Schedule serial(2);
  serial.assign(Assignment{a, 0, 0.0, 10.0});
  serial.assign(Assignment{b, 0, 10.0, 20.0});

  SimulationSession session(test::solo_environment(pool));
  ExecutionEngine engine(session, graph, model);
  engine.submit(serial);
  session.simulator().run_until(5.0);

  Schedule parallel(2);
  parallel.assign(Assignment{a, 0, 0.0, 10.0});  // keep running job
  parallel.assign(Assignment{b, 1, 5.0, 15.0});
  engine.submit(parallel);
  session.run();
  EXPECT_DOUBLE_EQ(engine.makespan(), 15.0);
  EXPECT_EQ(engine.counters().restarts, 0u);
}

TEST(Engine, ReplacementRestartsRunningJob) {
  dag::Dag graph;
  const dag::JobId a = graph.add_job("a");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{});
  pool.add(grid::Resource{});
  grid::MachineModel model(1, 2);
  model.set_compute_cost(0, 0, 10.0);
  model.set_compute_cost(0, 1, 3.0);

  Schedule slow(1);
  slow.assign(Assignment{a, 0, 0.0, 10.0});
  sim::TraceRecorder trace;
  SimulationSession session(test::solo_environment(pool, &trace));
  ExecutionEngine engine(session, graph, model);
  engine.submit(slow);
  session.simulator().run_until(4.0);

  Schedule fast(1);
  fast.assign(Assignment{a, 1, 4.0, 7.0});  // restart elsewhere
  engine.submit(fast);
  session.run();
  EXPECT_DOUBLE_EQ(engine.makespan(), 7.0);
  EXPECT_EQ(engine.counters().restarts, 1u);
  // The cancelled partial run is visible in the trace.
  const auto computes = trace.sorted(sim::IntervalKind::kCompute);
  ASSERT_EQ(computes.size(), 2u);
  EXPECT_DOUBLE_EQ(computes[0].end, 4.0);   // aborted at the switch
  EXPECT_DOUBLE_EQ(computes[1].start, 4.0);
}

TEST(Engine, RewritingHistoryIsRejected) {
  const auto scenario = workloads::sample_scenario();
  const Schedule plan =
      heft_schedule(scenario.dag, scenario.model, scenario.pool);
  SimulationSession session(test::solo_environment(scenario.pool));
  ExecutionEngine engine(session, scenario.dag, scenario.model);
  engine.submit(plan);
  session.simulator().run_until(15.0);  // n1 finished at 9 on r3

  Schedule rewrite(10);
  rewrite.assign(Assignment{0, 0, 0.0, 14.0});  // pretend n1 ran on r1
  for (dag::JobId i = 1; i < 10; ++i) {
    const Assignment& original = plan.assignment(i);
    rewrite.assign(Assignment{i, original.resource,
                              original.start + 100.0,
                              original.finish + 100.0});
  }
  EXPECT_THROW(engine.submit(rewrite), AssertionError);
}

TEST(Engine, CompletionHookObservesEveryJob) {
  const auto scenario = workloads::sample_scenario();
  const Schedule plan =
      heft_schedule(scenario.dag, scenario.model, scenario.pool);
  SimulationSession session(test::solo_environment(scenario.pool));
  ExecutionEngine engine(session, scenario.dag, scenario.model);
  std::size_t completions = 0;
  double last_finish = 0.0;
  engine.set_completion_hook([&](dag::JobId, grid::ResourceId, sim::Time,
                                 sim::Time aft) {
    ++completions;
    EXPECT_GE(aft, last_finish);
    last_finish = aft;
  });
  engine.submit(plan);
  session.run();
  EXPECT_EQ(completions, 10u);
  EXPECT_DOUBLE_EQ(last_finish, 80.0);
}

TEST(Engine, RequiresCompleteSchedule) {
  const auto scenario = workloads::sample_scenario();
  SimulationSession session(test::solo_environment(scenario.pool));
  ExecutionEngine engine(session, scenario.dag, scenario.model);
  Schedule partial(10);
  partial.assign(Assignment{0, 2, 0.0, 9.0});
  EXPECT_THROW(engine.submit(partial), std::invalid_argument);
  EXPECT_THROW((void)engine.current_schedule(), std::invalid_argument);
}

// ----- requeue on departure -----------------------------------------------

TEST(EngineRequeue, EveryJobQueuedOnADepartedMachineMoves) {
  // pb -> b and pa -> a. The plan queues a then b on "doomed", which
  // departs at 5, long before either can start there. a's producer
  // finishes last (t = 10), so the pump that requeues a is the last one
  // any completion triggers on "doomed"; b's input has been there since
  // t = 1 and must be moved by that same scan, not abandoned.
  dag::Dag graph;
  const dag::JobId pb = graph.add_job("pb");
  const dag::JobId pa = graph.add_job("pa");
  const dag::JobId a = graph.add_job("a");
  const dag::JobId b = graph.add_job("b");
  graph.add_edge(pb, b, 0.0);
  graph.add_edge(pa, a, 0.0);
  graph.finalize();
  grid::ResourcePool pool;
  const grid::ResourceId stays = pool.add(grid::Resource{.name = "stays"});
  const grid::ResourceId doomed = pool.add(grid::Resource{.name = "doomed"});
  // Finite on purpose: choose_requeue_target treats an infinite
  // departure as already past (see ROADMAP).
  pool.set_departure(stays, 100.0);
  pool.set_departure(doomed, 5.0);
  grid::MachineModel model(4, 2);
  for (grid::ResourceId r : {stays, doomed}) {
    model.set_compute_cost(pb, r, 1.0);
    model.set_compute_cost(pa, r, 9.0);
    model.set_compute_cost(a, r, 1.0);
    model.set_compute_cost(b, r, 1.0);
  }
  Schedule plan(4);
  plan.assign(Assignment{pb, stays, 0.0, 1.0});
  plan.assign(Assignment{pa, stays, 1.0, 10.0});
  plan.assign(Assignment{a, doomed, 10.0, 11.0});
  plan.assign(Assignment{b, doomed, 11.0, 12.0});

  SessionEnvironment env = test::solo_environment(pool);
  env.resilience.departure_action = resilience::DepartureAction::kRequeue;
  SimulationSession session(env);
  ExecutionEngine engine(session, graph, model);
  engine.submit(plan);
  session.run();
  EXPECT_FALSE(engine.failed()) << engine.failure_reason();
  EXPECT_EQ(engine.current_schedule().assignment(a).resource, stays);
  EXPECT_EQ(engine.current_schedule().assignment(b).resource, stays);
  EXPECT_TRUE(engine.finished());
  EXPECT_DOUBLE_EQ(engine.makespan(), 12.0);
}

TEST(EngineRequeue, RunToTheWallJobIsRecordedRunningOnItsNewMachine) {
  // p -> j. j starts on "short" at t = 1, but its 10 units cannot beat the
  // departure at 5: under kRequeue it runs to the wall, and the departure
  // requeues it onto "spare" at t = 5, where its input is resent.
  dag::Dag graph;
  const dag::JobId p = graph.add_job("p");
  const dag::JobId j = graph.add_job("j");
  graph.add_edge(p, j, 0.0);
  graph.finalize();
  grid::ResourcePool pool;
  const grid::ResourceId short_lived =
      pool.add(grid::Resource{.name = "short"});
  const grid::ResourceId spare = pool.add(grid::Resource{.name = "spare"});
  pool.set_departure(short_lived, 5.0);
  // Finite on purpose: choose_requeue_target treats an infinite
  // departure as already past (see ROADMAP).
  pool.set_departure(spare, 100.0);
  grid::MachineModel model(2, 2);
  for (grid::ResourceId r : {short_lived, spare}) {
    model.set_compute_cost(p, r, 1.0);
    model.set_compute_cost(j, r, 10.0);
  }
  Schedule plan(2);
  plan.assign(Assignment{p, short_lived, 0.0, 1.0});
  plan.assign(Assignment{j, short_lived, 1.0, 11.0});

  SessionEnvironment env = test::solo_environment(pool);
  env.resilience.departure_action = resilience::DepartureAction::kRequeue;
  SimulationSession session(env);
  ExecutionEngine engine(session, graph, model);
  engine.submit(plan);
  session.simulator().run_until(4.0);
  {
    const ExecutionSnapshot& before = engine.snapshot();
    ASSERT_TRUE(before.running_info(j).has_value());
    EXPECT_EQ(before.running_info(j)->resource, short_lived);
    EXPECT_DOUBLE_EQ(before.running_info(j)->expected_finish, 5.0);
  }

  session.simulator().run_until(6.0);
  const ExecutionSnapshot& after = engine.snapshot();
  EXPECT_DOUBLE_EQ(after.clock(), 6.0);
  EXPECT_FALSE(after.finished(j));
  const auto running = after.running_info(j);
  ASSERT_TRUE(running.has_value());
  EXPECT_EQ(running->resource, spare);
  EXPECT_DOUBLE_EQ(running->ast, 5.0);
  EXPECT_DOUBLE_EQ(running->expected_finish, 15.0);
  EXPECT_TRUE(after.arrival(0, spare).has_value());
  EXPECT_EQ(engine.counters().revoked_jobs, 1u);

  session.run();
  EXPECT_FALSE(engine.failed()) << engine.failure_reason();
  EXPECT_TRUE(engine.finished());
  EXPECT_DOUBLE_EQ(engine.makespan(), 15.0);
}

// ----- property sweep: replay fidelity over random cases ------------------

class EngineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineProperty, RealizedEqualsPlannedUnderPerfectPrediction) {
  const test::RandomCase c = test::make_random_case(GetParam());
  const Schedule plan = heft_schedule(c.workload.dag, c.model, c.pool);
  sim::TraceRecorder trace;
  SimulationSession session(test::solo_environment(c.pool, &trace));
  ExecutionEngine engine(session, c.workload.dag, c.model);
  const dag::Dag& dag = c.workload.dag;
  // At every completion the snapshot reads exactly the jobs reported so
  // far, with each finished producer's output at its own resource at AFT.
  // A copy taken at the first completion keeps reading that moment.
  std::vector<bool> reported(dag.job_count(), false);
  std::size_t reported_count = 0;
  std::optional<ExecutionSnapshot> first;
  dag::JobId first_job = dag::kInvalidJob;
  sim::Time first_aft = sim::kTimeZero;
  engine.set_completion_hook([&](dag::JobId job, grid::ResourceId resource,
                                 sim::Time, sim::Time aft) {
    reported[job] = true;
    ++reported_count;
    const ExecutionSnapshot& snap = engine.snapshot();
    EXPECT_DOUBLE_EQ(snap.clock(), aft);
    EXPECT_EQ(snap.finished_count(), reported_count);
    for (dag::JobId i = 0; i < dag.job_count(); ++i) {
      ASSERT_EQ(snap.finished(i), reported[i]) << "job " << i;
    }
    EXPECT_EQ(snap.finished_info(job).resource, resource);
    for (std::size_t e = 0; e < dag.edge_count(); ++e) {
      const dag::JobId from = dag.edges()[e].from;
      if (!snap.finished(from)) {
        continue;
      }
      const FinishedInfo info = snap.finished_info(from);
      const std::optional<sim::Time> arrival = snap.arrival(e, info.resource);
      ASSERT_TRUE(arrival.has_value()) << "edge " << e;
      EXPECT_DOUBLE_EQ(*arrival, info.aft) << "edge " << e;
    }
    if (!first.has_value()) {
      first = snap;
      first_job = job;
      first_aft = aft;
      return;
    }
    EXPECT_GT(snap.finished_count(), first->finished_count());
    EXPECT_DOUBLE_EQ(first->clock(), first_aft);
    EXPECT_EQ(first->finished_count(), 1u);
    for (dag::JobId i = 0; i < dag.job_count(); ++i) {
      EXPECT_EQ(first->finished(i), i == first_job) << "job " << i;
    }
  });
  engine.submit(plan);
  session.run();
  ASSERT_TRUE(engine.finished());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(engine.snapshot().finished_count(), dag.job_count());
  EXPECT_NEAR(engine.makespan(), plan.makespan(), 1e-6);
  test::expect_valid_trace(trace, c.workload.dag, c.model, c.pool);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty,
                         ::testing::Values(7, 14, 21, 28, 35, 42, 49, 56, 63,
                                           70));

}  // namespace
}  // namespace aheft::core
