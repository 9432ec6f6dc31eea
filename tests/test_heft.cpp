// HEFT and upward-rank tests, anchored on the paper's published example.
#include <gtest/gtest.h>

#include "core/heft.h"
#include "core/ranking.h"
#include "core/rescheduler.h"
#include "core/schedule.h"
#include "helpers.h"
#include "workloads/sample.h"

namespace aheft::core {
namespace {

/// The initial (HEFT) pass at time 0 over an explicit visible set.
Schedule heft_on(const dag::Dag& dag, const grid::CostProvider& estimates,
                 const grid::ResourcePool& pool,
                 std::vector<grid::ResourceId> resources) {
  RescheduleRequest request;
  request.dag = &dag;
  request.estimates = &estimates;
  request.pool = &pool;
  request.resources = std::move(resources);
  return aheft_schedule(request);
}

class SampleHeft : public ::testing::Test {
 protected:
  workloads::SampleScenario scenario_ = workloads::sample_scenario();
  std::vector<grid::ResourceId> initial_{0, 1, 2};
};

TEST_F(SampleHeft, UpwardRanksMatchPublishedValues) {
  const auto ranks =
      upward_ranks(scenario_.dag, scenario_.model, initial_);
  // Values from Topcuoglu et al. [19], Table 4 (same DAG and costs).
  const std::vector<double> expected{108.0,   77.0,     80.0,  80.0, 69.0,
                                     63.3333, 42.6667, 35.6667, 44.3333,
                                     14.6667};
  ASSERT_EQ(ranks.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(ranks[i], expected[i], 1e-3) << "rank of n" << i + 1;
  }
}

TEST_F(SampleHeft, RankOrderMatchesPublishedOrder) {
  const auto ranks =
      upward_ranks(scenario_.dag, scenario_.model, initial_);
  const auto order = rank_order(ranks);
  const std::vector<dag::JobId> expected{0, 2, 3, 1, 4, 5, 8, 6, 7, 9};
  EXPECT_EQ(order, expected);  // n1 n3 n4 n2 n5 n6 n9 n7 n8 n10
}

TEST_F(SampleHeft, ReproducesPublishedMakespan80) {
  const Schedule s =
      heft_schedule(scenario_.dag, scenario_.model, scenario_.pool);
  EXPECT_DOUBLE_EQ(s.makespan(), 80.0);
  validate_static(s, scenario_.dag, scenario_.model, scenario_.pool);
}

TEST_F(SampleHeft, ReproducesPublishedPlacements) {
  const Schedule s =
      heft_schedule(scenario_.dag, scenario_.model, scenario_.pool);
  // Fig. 5(a): r3 runs n1,n3,n5,n7; r2 runs n4,n6,n9,n10; r1 runs n2,n8.
  EXPECT_EQ(s.assignment(0).resource, 2u);
  EXPECT_DOUBLE_EQ(s.assignment(0).start, 0.0);
  EXPECT_EQ(s.assignment(2).resource, 2u);
  EXPECT_DOUBLE_EQ(s.assignment(2).start, 9.0);
  EXPECT_EQ(s.assignment(3).resource, 1u);
  EXPECT_DOUBLE_EQ(s.assignment(3).start, 18.0);
  EXPECT_EQ(s.assignment(1).resource, 0u);
  EXPECT_EQ(s.assignment(9).resource, 1u);
  EXPECT_DOUBLE_EQ(s.assignment(9).start, 73.0);
}

TEST_F(SampleHeft, IgnoresNotYetAvailableResources) {
  // r4 arrives at t=15; static HEFT at t=0 must not use it.
  const Schedule s =
      heft_schedule(scenario_.dag, scenario_.model, scenario_.pool);
  for (dag::JobId i = 0; i < 10; ++i) {
    EXPECT_NE(s.assignment(i).resource, 3u);
  }
}

TEST_F(SampleHeft, GreedyIsNotMonotoneInResources) {
  // A classic list-scheduling anomaly: with r4 present from t=0 greedy
  // HEFT routes n5 onto it, which cascades into makespan 87 — *worse* than
  // the 3-resource plan (80). This is exactly why AHEFT's adoption filter
  // (Fig. 2 line 7) matters: a candidate plan must prove itself better
  // before it replaces the incumbent.
  const auto available = workloads::sample_scenario(0.0);
  const Schedule s =
      heft_schedule(available.dag, available.model, available.pool);
  validate_static(s, available.dag, available.model, available.pool);
  EXPECT_DOUBLE_EQ(s.makespan(), 87.0);
  EXPECT_EQ(s.assignment(4).resource, 3u);  // n5 lured onto r4
}

TEST_F(SampleHeft, EndOfQueuePolicyIsValidAndNoBetter) {
  SchedulerConfig config;
  config.slot_policy = SlotPolicy::kEndOfQueue;
  const Schedule s =
      heft_schedule(scenario_.dag, scenario_.model, scenario_.pool, config);
  validate_static(s, scenario_.dag, scenario_.model, scenario_.pool);
  const Schedule insertion =
      heft_schedule(scenario_.dag, scenario_.model, scenario_.pool);
  EXPECT_GE(s.makespan() + sim::kTimeEpsilon, insertion.makespan());
}

TEST_F(SampleHeft, SingleResourceSerializesEverything) {
  const Schedule s =
      heft_on(scenario_.dag, scenario_.model, scenario_.pool, {0});
  validate_static(s, scenario_.dag, scenario_.model, scenario_.pool);
  double total = 0.0;
  for (dag::JobId i = 0; i < 10; ++i) {
    EXPECT_EQ(s.assignment(i).resource, 0u);
    total += scenario_.model.compute_cost(i, 0);
  }
  // No communication on a single resource: makespan = sum of costs.
  EXPECT_DOUBLE_EQ(s.makespan(), total);
}

TEST_F(SampleHeft, DelayedClockShiftsSchedule) {
  const Schedule s = heft_schedule(scenario_.dag, scenario_.model,
                                   scenario_.pool, {}, /*clock=*/100.0);
  for (dag::JobId i = 0; i < 10; ++i) {
    EXPECT_GE(s.assignment(i).start, 100.0);
  }
}

TEST(HeftRanking, RanksNeedResources) {
  const auto scenario = workloads::sample_scenario();
  EXPECT_THROW(upward_ranks(scenario.dag, scenario.model, {}),
               std::invalid_argument);
}

// The compat fence of contention-aware planning: a default-constructed
// (empty) AvailabilityView must leave every plan bit-identical to the
// view-less pass (test::expect_bit_identical).
TEST_F(SampleHeft, EmptyViewIsBitIdenticalOnTheFig5Example) {
  const AvailabilityView empty;
  const Schedule blind =
      heft_schedule(scenario_.dag, scenario_.model, scenario_.pool);
  const Schedule viewed =
      heft_schedule(scenario_.dag, scenario_.model, scenario_.pool, {},
                    sim::kTimeZero, &empty);
  test::expect_bit_identical(blind, viewed);
  EXPECT_DOUBLE_EQ(viewed.makespan(), 80.0);
}

// ----- property sweep: HEFT output is always a valid static schedule -----

class HeftProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeftProperty, ProducesValidStaticSchedules) {
  const test::RandomCase c = test::make_random_case(GetParam());
  const Schedule s = heft_schedule(c.workload.dag, c.model, c.pool);
  validate_static(s, c.workload.dag, c.model, c.pool);
  EXPECT_GT(s.makespan(), 0.0);
}

TEST_P(HeftProperty, EndOfQueueAlsoValid) {
  const test::RandomCase c = test::make_random_case(GetParam());
  SchedulerConfig config;
  config.slot_policy = SlotPolicy::kEndOfQueue;
  const Schedule s = heft_schedule(c.workload.dag, c.model, c.pool, config);
  validate_static(s, c.workload.dag, c.model, c.pool);
}

TEST_P(HeftProperty, MoreResourcesNeverHurtThePlan) {
  const test::RandomCase c = test::make_random_case(GetParam());
  const auto t0 = c.pool.available_at(0.0);
  std::vector<grid::ResourceId> halved(
      t0.begin(), t0.begin() + static_cast<std::ptrdiff_t>((t0.size() + 1) / 2));
  const Schedule small = heft_on(c.workload.dag, c.model, c.pool, halved);
  const Schedule big = heft_on(c.workload.dag, c.model, c.pool, t0);
  // Greedy HEFT is not formally monotone, but with the insertion policy a
  // superset of resources should essentially never lose; allow 5% slack.
  EXPECT_LE(big.makespan(), small.makespan() * 1.05);
}

TEST_P(HeftProperty, EmptyViewIsBitIdentical) {
  const test::RandomCase c = test::make_random_case(GetParam());
  const AvailabilityView empty;
  for (const SlotPolicy policy :
       {SlotPolicy::kInsertion, SlotPolicy::kEndOfQueue}) {
    SchedulerConfig config;
    config.slot_policy = policy;
    const Schedule blind =
        heft_schedule(c.workload.dag, c.model, c.pool, config);
    const Schedule viewed = heft_schedule(c.workload.dag, c.model, c.pool,
                                          config, sim::kTimeZero, &empty);
    test::expect_bit_identical(blind, viewed);
  }
}

TEST_P(HeftProperty, ForeignLoadDelaysOrMovesButStaysValid) {
  // A non-empty view must still yield structurally valid plans, and
  // blocking every machine over [0, T) can only push the makespan out.
  const test::RandomCase c = test::make_random_case(GetParam());
  AvailabilityView view(0.0);
  for (const grid::ResourceId r : c.pool.available_at(0.0)) {
    view.add_busy(r, 0.0, 40.0);
  }
  view.normalize();
  const Schedule blind = heft_schedule(c.workload.dag, c.model, c.pool);
  const Schedule viewed = heft_schedule(c.workload.dag, c.model, c.pool, {},
                                        sim::kTimeZero, &view);
  validate_structure(viewed, c.workload.dag, c.model, c.pool);
  EXPECT_GE(viewed.makespan(), blind.makespan());
  // No job of the initial pool may start inside the foreign block.
  for (dag::JobId i = 0; i < c.workload.dag.job_count(); ++i) {
    const Assignment& a = viewed.assignment(i);
    if (c.pool.resource(a.resource).arrival == 0.0) {
      EXPECT_GE(a.start, 40.0) << "job " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeftProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace aheft::core
