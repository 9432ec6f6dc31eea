// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/event_queue.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "support/thread_pool.h"

namespace aheft::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.push(5.0, [&] { fired.push_back(5); });
  queue.push(1.0, [&] { fired.push_back(1); });
  queue.push(3.0, [&] { fired.push_back(3); });
  while (!queue.empty()) {
    queue.pop().action();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 5}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.push(2.0, [&] { fired.push_back(1); });
  queue.push(2.0, [&] { fired.push_back(2); });
  queue.push(2.0, [&] { fired.push_back(3); });
  while (!queue.empty()) {
    queue.pop().action();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue queue;
  bool fired = false;
  const EventId id = queue.push(1.0, [&] { fired = true; });
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));  // double cancel reports failure
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue queue;
  const EventId early = queue.push(1.0, [] {});
  queue.push(4.0, [] {});
  queue.cancel(early);
  EXPECT_DOUBLE_EQ(queue.next_time(), 4.0);
  EXPECT_EQ(queue.live_count(), 1u);
}

TEST(EventQueue, RejectsNullAndInfinite) {
  EventQueue queue;
  EXPECT_THROW(queue.push(1.0, nullptr), std::invalid_argument);
  EXPECT_THROW(queue.push(kTimeInfinity, [] {}), std::invalid_argument);
}

TEST(EventQueue, CancelChurnDoesNotGrowHeapUnbounded) {
  // Regression: cancel() used to leave the heap key behind until skim()
  // reached it, so scheduling-then-cancelling far-future events (the
  // two-phase dynamic hold pattern under churn) grew the heap without
  // bound. One live near event keeps skim() from ever reaching the
  // orphans, forcing the compaction path to do the reclaiming.
  EventQueue queue;
  queue.push(1.0, [] {});
  for (int i = 0; i < 100000; ++i) {
    const EventId id = queue.push(1e9 + i, [] {});
    queue.cancel(id);
    EXPECT_LE(queue.key_count(),
              std::max(2 * queue.live_count(), EventQueue::kCompactionFloor))
        << "orphaned heap keys exceeded the compaction bound at churn " << i;
  }
  EXPECT_EQ(queue.live_count(), 1u);
  EXPECT_DOUBLE_EQ(queue.next_time(), 1.0);
}

TEST(EventQueue, CompactionPreservesPopOrder) {
  // Interleave live and cancelled entries so compaction (triggered by
  // the cancels) has to rebuild the heap mid-stream, then verify the
  // drain is still strict (time, insertion) order.
  EventQueue queue;
  std::vector<int> fired;
  std::vector<EventId> doomed;
  for (int i = 0; i < 300; ++i) {
    const double when = static_cast<double>((i * 7919) % 100);
    if (i % 2 == 0) {
      queue.push(when, [&fired, i] { fired.push_back(i); });
    } else {
      doomed.push_back(queue.push(when + 1000.0, [] {}));
    }
  }
  for (const EventId id : doomed) {
    EXPECT_TRUE(queue.cancel(id));
  }
  double last_time = -1.0;
  while (!queue.empty()) {
    const auto event = queue.pop();
    EXPECT_GE(event.time, last_time);
    last_time = event.time;
    event.action();
  }
  EXPECT_EQ(fired.size(), 150u);
  // Same-time ties broke by insertion id: within each timestamp the
  // recorded indices must ascend.
  for (std::size_t i = 1; i < fired.size(); ++i) {
    const double t_prev = static_cast<double>((fired[i - 1] * 7919) % 100);
    const double t_cur = static_cast<double>((fired[i] * 7919) % 100);
    if (t_prev == t_cur) {
      EXPECT_LT(fired[i - 1], fired[i]);
    }
  }
}

TEST(Simulator, AdvancesClockMonotonically) {
  Simulator sim;
  std::vector<Time> stamps;
  sim.schedule_at(10.0, [&] { stamps.push_back(sim.now()); });
  sim.schedule_at(4.0, [&] {
    stamps.push_back(sim.now());
    sim.schedule_in(2.0, [&] { stamps.push_back(sim.now()); });
  });
  EXPECT_DOUBLE_EQ(sim.run(), 10.0);
  EXPECT_EQ(stamps, (std::vector<Time>{4.0, 6.0, 10.0}));
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(5.0, [&] {
    EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
  });
  sim.run();
}

TEST(Simulator, RunUntilStopsAtHorizonAndResumes) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(1.0, [&] { fired.push_back(1); });
  sim.schedule_at(7.0, [&] { fired.push_back(7); });
  sim.run_until(3.0);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);  // idles forward to the horizon
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 7}));
}

TEST(Simulator, EventAtHorizonFires) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(3.0, [&] { fired = true; });
  sim.run_until(3.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelledEventDoesNotFire) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(2.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulator, StepExecutesExactlyOneEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(ShardedSimulator, SingleShardMatchesSerialLoop) {
  // One shard runs the one epoch rule like any other count: its first
  // epoch drains the lone loop to completion, which is the serial loop.
  Simulator serial;
  ShardedSimulator sharded(1);
  std::vector<int> serial_fired;
  std::vector<int> sharded_fired;
  for (Simulator* sim : {&serial, &sharded.shard(0)}) {
    std::vector<int>* out =
        sim == &serial ? &serial_fired : &sharded_fired;
    sim->schedule_at(2.0, [out, sim] {
      out->push_back(2);
      sim->schedule_in(1.0, [out] { out->push_back(3); });
    });
    sim->schedule_at(2.0, [out] { out->push_back(-2); });
    sim->schedule_at(1.0, [out] { out->push_back(1); });
  }
  const Time serial_end = serial.run();
  const Time sharded_end = sharded.run(nullptr);
  EXPECT_EQ(serial_fired, sharded_fired);
  EXPECT_DOUBLE_EQ(serial_end, sharded_end);
  EXPECT_EQ(serial.executed_events(), sharded.executed_events());
  EXPECT_EQ(sharded.epochs(), 1u);
}

TEST(ShardedSimulator, ShardsDrainSameTimeEventsInOneEpoch) {
  ShardedSimulator sharded(3);
  std::vector<std::vector<int>> fired(3);
  for (std::size_t s = 0; s < 3; ++s) {
    auto* out = &fired[s];
    sharded.shard(s).schedule_at(1.0, [out] { out->push_back(1); });
    sharded.shard(s).schedule_at(2.0, [out] { out->push_back(2); });
  }
  ThreadPool pool(2);
  EXPECT_DOUBLE_EQ(sharded.run(&pool), 2.0);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(fired[s], (std::vector<int>{1, 2})) << "shard " << s;
  }
  // Every shard ties at the frontier, so each epoch stops at it: all
  // shards' t=1 events ran in the first epoch, all t=2 events in the
  // second.
  EXPECT_EQ(sharded.epochs(), 2u);
  EXPECT_EQ(sharded.executed_events(), 6u);
}

TEST(ShardedSimulator, EpochDrainsToTheSecondFrontier) {
  // Shard 0 is dense (t=1..4), shard 1 wakes at t=100: the first epoch
  // drains every shard to the second-smallest next-event time, t=100
  // inclusive, so one epoch runs everything.
  ShardedSimulator sharded(2);
  std::vector<int> fired;
  for (int t = 1; t <= 4; ++t) {
    sharded.shard(0).schedule_at(static_cast<Time>(t),
                                 [&fired, t] { fired.push_back(t); });
  }
  sharded.shard(1).schedule_at(100.0, [&fired] { fired.push_back(100); });
  EXPECT_DOUBLE_EQ(sharded.run(nullptr), 100.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4, 100}));
  EXPECT_EQ(sharded.epochs(), 1u);
}

TEST(ShardedSimulator, SingleActiveShardDrainsToCompletion) {
  // Only one shard has pending events, so nothing constrains the epoch:
  // the whole backlog drains in one epoch.
  ShardedSimulator sharded(2);
  int fired = 0;
  for (const Time t : {1.0, 50.0, 900.0}) {
    sharded.shard(0).schedule_at(t, [&fired] { ++fired; });
  }
  EXPECT_DOUBLE_EQ(sharded.run(nullptr), 900.0);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sharded.epochs(), 1u);
}

TEST(ShardedSimulator, EventsCannotReachAnotherShardDuringRun) {
  // Shards exchange nothing during a run: an event on shard 0 that tries
  // to schedule on shard 1 fails the confinement check.
  ShardedSimulator sharded(2);
  sharded.shard(0).schedule_at(1.0, [&sharded] {
    sharded.shard(1).schedule_at(2.0, [] {});
  });
  EXPECT_THROW(sharded.run(nullptr), std::invalid_argument);
}

TEST(ShardedSimulator, BarrierHookRunsOncePerEpoch) {
  ShardedSimulator sharded(2);
  int barriers = 0;
  sharded.set_barrier_hook([&barriers] { ++barriers; });
  for (std::size_t s = 0; s < 2; ++s) {
    for (int t = 1; t <= 3; ++t) {
      sharded.shard(s).schedule_at(static_cast<Time>(t), [] {});
    }
  }
  sharded.run(nullptr);
  EXPECT_EQ(barriers, static_cast<int>(sharded.epochs()));
  EXPECT_EQ(barriers, 3);

  // One shard drains in a single epoch, so its hook fires once.
  ShardedSimulator serial(1);
  int serial_barriers = 0;
  serial.set_barrier_hook([&serial_barriers] { ++serial_barriers; });
  serial.shard(0).schedule_at(1.0, [] {});
  serial.shard(0).schedule_at(2.0, [] {});
  serial.run(nullptr);
  EXPECT_EQ(serial_barriers, 1);
}

TEST(ShardedSimulator, RejectsZeroShardsAndBadIndices) {
  EXPECT_THROW(ShardedSimulator(0), std::invalid_argument);
  ShardedSimulator sharded(2);
  EXPECT_THROW(static_cast<void>(sharded.shard(2)), std::invalid_argument);
}

TEST(Trace, RecordsAndSortsIntervals) {
  TraceRecorder trace;
  trace.record_compute(1, 0, 5.0, 9.0);
  trace.record_compute(0, 0, 0.0, 5.0);
  trace.record_transfer(0, 1, 1, 5.0, 8.0);
  const auto computes = trace.sorted(IntervalKind::kCompute);
  ASSERT_EQ(computes.size(), 2u);
  EXPECT_EQ(computes[0].job, 0u);
  EXPECT_EQ(computes[1].job, 1u);
  const auto transfers = trace.sorted(IntervalKind::kTransfer);
  ASSERT_EQ(transfers.size(), 1u);
  EXPECT_EQ(transfers[0].consumer, 1u);
}

TEST(Trace, RejectsBackwardIntervals) {
  TraceRecorder trace;
  EXPECT_THROW(trace.record_compute(0, 0, 5.0, 4.0), std::invalid_argument);
  EXPECT_THROW(trace.record_transfer(0, 1, 0, 5.0, 4.0),
               std::invalid_argument);
}

TEST(Trace, GanttNamesRowsByResource) {
  TraceRecorder trace;
  trace.record_compute(0, 0, 0.0, 2.0);
  trace.record_compute(1, 1, 2.0, 3.0);
  const std::string gantt = trace.gantt({"a", "b"}, {"r1", "r2"});
  EXPECT_NE(gantt.find("r1"), std::string::npos);
  EXPECT_NE(gantt.find("a[0.0,2.0)"), std::string::npos);
  EXPECT_NE(gantt.find("b[2.0,3.0)"), std::string::npos);
}

/// Hand-built stamped run: record i of the run has stamp `stamps[i]`,
/// seq i, and names its shard in the interval's resource field.
std::vector<StampedTraceRecord> stamped_run(std::uint32_t shard,
                                            const std::vector<Time>& stamps) {
  std::vector<StampedTraceRecord> run;
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    TraceInterval interval;
    interval.resource = shard;
    run.push_back(StampedTraceRecord{stamps[i], i, interval});
  }
  return run;
}

/// (stamp, shard, seq) of every record in merged order.
std::vector<std::tuple<Time, std::uint32_t, std::uint64_t>> merged_order(
    const std::vector<std::vector<StampedTraceRecord>>& runs) {
  std::vector<std::tuple<Time, std::uint32_t, std::uint64_t>> out;
  merge_stamped_runs(runs, [&out](const StampedTraceRecord& record) {
    out.emplace_back(record.stamp, record.interval.resource, record.seq);
  });
  return out;
}

TEST(MergeStampedRuns, EqualStampsGoInShardThenSeqOrder) {
  const auto merged = merged_order(
      {stamped_run(0, {1.0, 2.0, 2.0}), stamped_run(1, {2.0, 2.0})});
  using Key = std::tuple<Time, std::uint32_t, std::uint64_t>;
  EXPECT_EQ(merged, (std::vector<Key>{{1.0, 0, 0},
                                      {2.0, 0, 1},
                                      {2.0, 0, 2},
                                      {2.0, 1, 0},
                                      {2.0, 1, 1}}));
}

TEST(MergeStampedRuns, LaterShardWithTheSmallestStampGoesFirst) {
  const auto merged = merged_order(
      {stamped_run(0, {3.0, 5.0}), stamped_run(1, {4.0}),
       stamped_run(2, {1.0, 5.0})});
  using Key = std::tuple<Time, std::uint32_t, std::uint64_t>;
  EXPECT_EQ(merged, (std::vector<Key>{{1.0, 2, 0},
                                      {3.0, 0, 0},
                                      {4.0, 1, 0},
                                      {5.0, 0, 1},
                                      {5.0, 2, 1}}));
}

TEST(MergeStampedRuns, SkipsEmptyRunsAndPassesASingleRunThrough) {
  using Key = std::tuple<Time, std::uint32_t, std::uint64_t>;
  EXPECT_EQ(merged_order({stamped_run(0, {}), stamped_run(1, {2.0, 7.0}),
                          stamped_run(2, {})}),
            (std::vector<Key>{{2.0, 1, 0}, {7.0, 1, 1}}));
  EXPECT_EQ(merged_order({stamped_run(0, {1.0, 1.0, 4.0})}),
            (std::vector<Key>{{1.0, 0, 0}, {1.0, 0, 1}, {4.0, 0, 2}}));
  EXPECT_TRUE(merged_order({}).empty());
  EXPECT_TRUE(merged_order({stamped_run(0, {})}).empty());
}

TEST(Trace, StampedSinkKeepsEachRecordOnceInItsPendingRun) {
  Time clock = 3.0;
  StampedTraceSink sink([&clock] { return clock; });
  sink.record_compute(1, 2, 0.0, 3.0);
  clock = 5.0;
  sink.record_transfer(1, 4, 2, 3.0, 5.0);
  EXPECT_THROW(sink.record_compute(0, 0, 5.0, 4.0), std::invalid_argument);
  EXPECT_TRUE(sink.intervals().empty());
  const std::vector<StampedTraceRecord> pending = sink.take_pending();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].stamp, 3.0);
  EXPECT_EQ(pending[0].seq, 0u);
  EXPECT_EQ(pending[0].interval.kind, IntervalKind::kCompute);
  EXPECT_EQ(pending[1].stamp, 5.0);
  EXPECT_EQ(pending[1].seq, 1u);
  EXPECT_EQ(pending[1].interval.consumer, 4u);
  EXPECT_TRUE(sink.take_pending().empty());
}

TEST(TimeHelpers, ToleranceComparisons) {
  EXPECT_TRUE(time_eq(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(time_eq(1.0, 1.001));
  EXPECT_TRUE(time_le(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(time_le(1.0 + 1e-12, 1.0));
  EXPECT_TRUE(time_ge(5.0, 4.999999999999));
  EXPECT_FALSE(time_le(2.0, 1.0));
}

}  // namespace
}  // namespace aheft::sim
