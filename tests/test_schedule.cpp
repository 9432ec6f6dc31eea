// Unit tests for the schedule representation, slot search, and validators.
#include <gtest/gtest.h>

#include <vector>

#include "core/schedule.h"
#include "support/assert.h"
#include "workloads/sample.h"

namespace aheft::core {
namespace {

TEST(Schedule, AssignAndLookup) {
  Schedule s(3);
  EXPECT_FALSE(s.assigned(0));
  s.assign(Assignment{0, 1, 0.0, 5.0});
  EXPECT_TRUE(s.assigned(0));
  EXPECT_EQ(s.assignment(0).resource, 1u);
  EXPECT_DOUBLE_EQ(s.assignment(0).duration(), 5.0);
  EXPECT_EQ(s.assigned_count(), 1u);
  EXPECT_FALSE(s.complete());
  s.assign(Assignment{1, 1, 5.0, 7.0});
  s.assign(Assignment{2, 0, 0.0, 1.0});
  EXPECT_TRUE(s.complete());
  EXPECT_DOUBLE_EQ(s.makespan(), 7.0);
  EXPECT_EQ(s.used_resources(), (std::vector<grid::ResourceId>{0, 1}));
}

TEST(Schedule, TimelineSortedByStart) {
  Schedule s(3);
  s.assign(Assignment{0, 0, 10.0, 12.0});
  s.assign(Assignment{1, 0, 0.0, 5.0});
  s.assign(Assignment{2, 0, 5.0, 10.0});
  const auto& slots = s.timeline(0);
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[0].job, 1u);
  EXPECT_EQ(slots[1].job, 2u);
  EXPECT_EQ(slots[2].job, 0u);
  EXPECT_TRUE(s.timeline(9).empty());
}

TEST(Schedule, UnassignRemovesTheSlotEverywhere) {
  Schedule s(3);
  s.assign(Assignment{0, 0, 0.0, 5.0});
  s.assign(Assignment{1, 0, 5.0, 12.0});
  s.assign(Assignment{2, 1, 0.0, 3.0});
  ASSERT_TRUE(s.complete());

  s.unassign(1);
  EXPECT_FALSE(s.assigned(1));
  EXPECT_THROW((void)s.assignment(1), std::invalid_argument);
  EXPECT_EQ(s.assigned_count(), 2u);
  EXPECT_FALSE(s.complete());
  EXPECT_DOUBLE_EQ(s.makespan(), 5.0);
  ASSERT_EQ(s.timeline(0).size(), 1u);
  EXPECT_EQ(s.timeline(0)[0].job, 0u);
  // The freed window is free again.
  EXPECT_DOUBLE_EQ(s.earliest_slot(0, 5.0, 7.0, SlotPolicy::kInsertion, 0.0,
                                   sim::kTimeInfinity),
                   5.0);
  EXPECT_THROW(s.unassign(1), std::invalid_argument);

  // A resource whose last slot goes has no timeline left.
  s.unassign(2);
  EXPECT_TRUE(s.timeline(1).empty());
  EXPECT_EQ(s.used_resources(), (std::vector<grid::ResourceId>{0}));

  // Re-assigning restores the timeline, also on another resource.
  s.assign(Assignment{1, 0, 5.0, 12.0});
  s.assign(Assignment{2, 0, 12.0, 15.0});
  ASSERT_EQ(s.timeline(0).size(), 3u);
  EXPECT_EQ(s.timeline(0)[1].job, 1u);
  EXPECT_EQ(s.timeline(0)[2].job, 2u);
  EXPECT_TRUE(s.complete());
  EXPECT_DOUBLE_EQ(s.makespan(), 15.0);
}

TEST(Schedule, RejectsDoubleAssignmentAndOverlap) {
  Schedule s(3);
  s.assign(Assignment{0, 0, 0.0, 5.0});
  EXPECT_THROW(s.assign(Assignment{0, 1, 0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(s.assign(Assignment{1, 0, 4.0, 6.0}), std::invalid_argument);
  s.assign(Assignment{1, 0, 5.0, 6.0});  // touching is allowed
  EXPECT_THROW(s.assign(Assignment{2, 0, 0.0, 20.0}), std::invalid_argument);
}

TEST(Schedule, RejectsOverlapWithEitherNeighbour) {
  Schedule s(8);
  s.assign(Assignment{0, 0, 0.0, 5.0});
  s.assign(Assignment{1, 0, 10.0, 15.0});
  s.assign(Assignment{2, 0, 20.0, 25.0});
  s.assign(Assignment{3, 1, 12.0, 18.0});  // another resource: no conflict
  // Inserted between [10, 15) and [20, 25): each neighbour alone rejects.
  EXPECT_THROW(s.assign(Assignment{4, 0, 14.0, 18.0}), std::invalid_argument);
  EXPECT_THROW(s.assign(Assignment{4, 0, 16.0, 21.0}), std::invalid_argument);
  // Past the last slot and before the first.
  EXPECT_THROW(s.assign(Assignment{4, 0, 24.0, 30.0}), std::invalid_argument);
  EXPECT_THROW(s.assign(Assignment{4, 0, -3.0, 1.0}), std::invalid_argument);
  EXPECT_EQ(s.assigned_count(), 4u);
  EXPECT_FALSE(s.assigned(4));
  s.assign(Assignment{4, 0, 16.0, 19.0});
  EXPECT_EQ(s.timeline(0).size(), 4u);
}

TEST(Schedule, AcceptsSlotsTouchingBothNeighbours) {
  Schedule s(3);
  s.assign(Assignment{0, 0, 0.0, 5.0});
  s.assign(Assignment{1, 0, 10.0, 15.0});
  s.assign(Assignment{2, 0, 5.0, 10.0});
  const auto slots = s.timeline(0);
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[0].job, 0u);
  EXPECT_EQ(slots[1].job, 2u);
  EXPECT_EQ(slots[2].job, 1u);
}

TEST(Schedule, OverlapCheckLooksPastZeroLengthNeighbours) {
  // A zero-length slot at [0, 0) touches [0, 10) and sorts after it, so
  // it is the left neighbour of a slot starting at 5; [0, 10) still
  // overlaps that slot.
  Schedule s(5);
  s.assign(Assignment{0, 0, 0.0, 10.0});
  s.assign(Assignment{1, 0, 0.0, 0.0});
  EXPECT_THROW(s.assign(Assignment{2, 0, 5.0, 6.0}), std::invalid_argument);
  // To the right: a zero-length slot within the tolerance after 20 does
  // not overlap a slot starting at 20, but [30, 40) behind it does.
  const sim::Time dust = 20.0 + 0.5 * sim::kTimeEpsilon;
  s.assign(Assignment{2, 0, 30.0, 40.0});
  s.assign(Assignment{3, 0, dust, dust});
  EXPECT_THROW(s.assign(Assignment{4, 0, 20.0, 32.0}), std::invalid_argument);
  s.assign(Assignment{4, 0, 20.0, 30.0});
  EXPECT_EQ(s.timeline(0).size(), 5u);
}

TEST(Schedule, EqualStartsKeepAssignmentOrder) {
  Schedule s(4);
  s.assign(Assignment{2, 0, 5.0, 10.0});
  s.assign(Assignment{0, 0, 5.0, 5.0});  // same start: goes after job 2
  s.assign(Assignment{3, 0, 20.0, 20.0});
  s.assign(Assignment{1, 0, 20.0, 25.0});  // same start: goes after job 3
  const auto slots = s.timeline(0);
  ASSERT_EQ(slots.size(), 4u);
  std::vector<dag::JobId> order;
  for (const Assignment& slot : slots) {
    order.push_back(slot.job);
  }
  EXPECT_EQ(order, (std::vector<dag::JobId>{2, 0, 3, 1}));
}

TEST(Schedule, CopyAndMoveKeepTimelines) {
  Schedule s(4);
  s.assign(Assignment{0, 3, 0.0, 5.0});
  s.assign(Assignment{1, 1, 0.0, 2.0});
  s.assign(Assignment{2, 3, 5.0, 9.0});
  const Schedule copy = s;
  s.unassign(0);
  s.assign(Assignment{3, 3, 1.0, 4.0});
  ASSERT_EQ(copy.timeline(3).size(), 2u);
  EXPECT_EQ(copy.timeline(3)[0].job, 0u);
  EXPECT_EQ(copy.timeline(3)[1].job, 2u);
  EXPECT_FALSE(copy.assigned(3));
  EXPECT_EQ(copy.used_resources(), (std::vector<grid::ResourceId>{1, 3}));

  const Schedule moved = std::move(s);
  ASSERT_EQ(moved.timeline(3).size(), 2u);
  EXPECT_EQ(moved.timeline(3)[0].job, 3u);
  EXPECT_EQ(moved.timeline(3)[1].job, 2u);
  ASSERT_EQ(moved.timeline(1).size(), 1u);
  EXPECT_EQ(moved.timeline(1)[0].job, 1u);
  EXPECT_FALSE(moved.assigned(0));
  EXPECT_DOUBLE_EQ(moved.makespan(), 9.0);
}

TEST(Schedule, InsertionSlotFindsGaps) {
  Schedule s(4);
  s.assign(Assignment{0, 0, 10.0, 20.0});
  s.assign(Assignment{1, 0, 30.0, 40.0});
  const auto policy = SlotPolicy::kInsertion;
  // Fits before the first slot.
  EXPECT_DOUBLE_EQ(
      s.earliest_slot(0, 0.0, 10.0, policy, 0.0, sim::kTimeInfinity), 0.0);
  // Too long for the head gap -> lands in the middle gap.
  EXPECT_DOUBLE_EQ(
      s.earliest_slot(0, 5.0, 8.0, policy, 0.0, sim::kTimeInfinity), 20.0);
  // Too long for any gap -> after the last slot.
  EXPECT_DOUBLE_EQ(
      s.earliest_slot(0, 0.0, 15.0, policy, 0.0, sim::kTimeInfinity), 40.0);
  // not_before pushes past a gap.
  EXPECT_DOUBLE_EQ(
      s.earliest_slot(0, 0.0, 5.0, policy, 22.0, sim::kTimeInfinity), 22.0);
}

TEST(Schedule, EndOfQueueIgnoresGaps) {
  Schedule s(4);
  s.assign(Assignment{0, 0, 10.0, 20.0});
  s.assign(Assignment{1, 0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(s.earliest_slot(0, 0.0, 5.0, SlotPolicy::kEndOfQueue, 0.0,
                                   sim::kTimeInfinity),
                   40.0);
}

TEST(Schedule, DeadlineMakesSlotInfeasible) {
  Schedule s(2);
  s.assign(Assignment{0, 0, 0.0, 10.0});
  EXPECT_EQ(s.earliest_slot(0, 0.0, 5.0, SlotPolicy::kInsertion, 0.0, 12.0),
            sim::kTimeInfinity);
  EXPECT_DOUBLE_EQ(
      s.earliest_slot(0, 0.0, 5.0, SlotPolicy::kInsertion, 0.0, 15.0), 10.0);
}

TEST(Schedule, EmptyResourceSlotUsesReadyAndFloor) {
  const Schedule s(1);
  EXPECT_DOUBLE_EQ(s.earliest_slot(5, 3.0, 2.0, SlotPolicy::kInsertion, 7.0,
                                   sim::kTimeInfinity),
                   7.0);
}

TEST(Schedule, ForeignViewGapsAreSearchedJointlyWithOwnSlots) {
  // Own slots [10, 20) and [30, 40); a competitor holds [0, 8) and
  // [22, 28). Free gaps of the merged picture: [8, 10), [20, 22),
  // [28, 30), [40, inf).
  Schedule s(4);
  s.assign(Assignment{0, 0, 10.0, 20.0});
  s.assign(Assignment{1, 0, 30.0, 40.0});
  AvailabilityView view(0.0);
  view.add_busy(0, 0.0, 8.0);
  view.add_busy(0, 22.0, 28.0);
  view.normalize();
  const auto policy = SlotPolicy::kInsertion;
  EXPECT_DOUBLE_EQ(s.earliest_slot(0, 0.0, 2.0, policy, 0.0,
                                   sim::kTimeInfinity, &view),
                   8.0);
  // Too long for [8, 10) -> the next joint gap that fits is [20, 22).
  EXPECT_DOUBLE_EQ(s.earliest_slot(0, 0.0, 2.0, policy, 9.0,
                                   sim::kTimeInfinity, &view),
                   20.0);
  // Nothing shorter than 3 fits before the last own slot ends.
  EXPECT_DOUBLE_EQ(s.earliest_slot(0, 0.0, 3.0, policy, 9.0,
                                   sim::kTimeInfinity, &view),
                   40.0);
  // The deadline check runs against the joint fit.
  EXPECT_EQ(s.earliest_slot(0, 0.0, 3.0, policy, 9.0, 41.0, &view),
            sim::kTimeInfinity);
  // End-of-queue still appends after own slots, then avoids foreign load.
  AvailabilityView tail(0.0);
  tail.add_busy(0, 39.0, 50.0);
  tail.normalize();
  EXPECT_DOUBLE_EQ(s.earliest_slot(0, 0.0, 5.0, SlotPolicy::kEndOfQueue,
                                   0.0, sim::kTimeInfinity, &tail),
                   50.0);
  // A null or empty view changes nothing.
  const AvailabilityView empty;
  EXPECT_DOUBLE_EQ(s.earliest_slot(0, 0.0, 2.0, policy, 0.0,
                                   sim::kTimeInfinity, &empty),
                   0.0);
  EXPECT_DOUBLE_EQ(
      s.earliest_slot(0, 0.0, 2.0, policy, 0.0, sim::kTimeInfinity), 0.0);
}

TEST(ScheduleValidation, AcceptsHeftScheduleOnSample) {
  const auto scenario = workloads::sample_scenario();
  Schedule s(10);
  // The published HEFT schedule (paper Fig. 5a).
  s.assign(Assignment{0, 2, 0.0, 9.0});     // n1 r3
  s.assign(Assignment{2, 2, 9.0, 28.0});    // n3 r3
  s.assign(Assignment{3, 1, 18.0, 26.0});   // n4 r2
  s.assign(Assignment{1, 0, 27.0, 40.0});   // n2 r1
  s.assign(Assignment{4, 2, 28.0, 38.0});   // n5 r3
  s.assign(Assignment{5, 1, 26.0, 42.0});   // n6 r2
  s.assign(Assignment{8, 1, 56.0, 68.0});   // n9 r2
  s.assign(Assignment{6, 2, 38.0, 49.0});   // n7 r3
  s.assign(Assignment{7, 0, 57.0, 62.0});   // n8 r1
  s.assign(Assignment{9, 1, 73.0, 80.0});   // n10 r2
  validate_static(s, scenario.dag, scenario.model, scenario.pool);
  EXPECT_DOUBLE_EQ(s.makespan(), 80.0);
}

TEST(ScheduleValidation, DetectsCommViolation) {
  const auto scenario = workloads::sample_scenario();
  Schedule s(10);
  s.assign(Assignment{0, 2, 0.0, 9.0});  // n1 on r3
  // n2 on r1 must wait for 9 + c(1,2) = 27, but starts at 20.
  s.assign(Assignment{1, 0, 20.0, 33.0});
  for (const dag::JobId j : {2, 3, 4, 5, 6, 7, 8}) {
    // Park remaining jobs far in the future so only the n2 edge violates.
    s.assign(Assignment{static_cast<dag::JobId>(j), 3,
                        1000.0 + 100.0 * j,
                        1000.0 + 100.0 * j +
                            scenario.model.compute_cost(
                                static_cast<dag::JobId>(j), 3)});
  }
  s.assign(Assignment{9, 3, 5000.0,
                      5000.0 + scenario.model.compute_cost(9, 3)});
  validate_structure(s, scenario.dag, scenario.model, scenario.pool);
  EXPECT_THROW(
      validate_static(s, scenario.dag, scenario.model, scenario.pool),
      AssertionError);
}

TEST(ScheduleValidation, DetectsWrongDurationAndMissingJob) {
  const auto scenario = workloads::sample_scenario();
  Schedule incomplete(10);
  incomplete.assign(Assignment{0, 2, 0.0, 9.0});
  EXPECT_THROW(validate_structure(incomplete, scenario.dag, scenario.model,
                                  scenario.pool),
               AssertionError);

  Schedule wrong(10);
  wrong.assign(Assignment{0, 2, 0.0, 10.0});  // n1 on r3 costs 9, not 10
  EXPECT_THROW(
      validate_structure(wrong, scenario.dag, scenario.model, scenario.pool),
      AssertionError);
}

TEST(ScheduleValidation, DetectsResourceWindowViolation) {
  const auto scenario = workloads::sample_scenario(15.0);  // r4 arrives at 15
  Schedule s(10);
  s.assign(Assignment{0, 3, 0.0, 14.0});  // n1 on r4 before it arrives
  EXPECT_THROW(
      validate_structure(s, scenario.dag, scenario.model, scenario.pool),
      AssertionError);
}

TEST(Schedule, GanttMentionsJobsAndResources) {
  const auto scenario = workloads::sample_scenario();
  Schedule s(10);
  s.assign(Assignment{0, 2, 0.0, 9.0});
  const std::string gantt = s.gantt(scenario.dag, scenario.pool);
  EXPECT_NE(gantt.find("r3"), std::string::npos);
  EXPECT_NE(gantt.find("n1[0.0,9.0)"), std::string::npos);
}

}  // namespace
}  // namespace aheft::core
