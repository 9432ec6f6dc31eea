// Resilience unit tests: the Daly checkpoint model (optimum interval,
// segment occupancy, interrupted-segment decomposition), config
// validation, revocation bookkeeping in the ledger (truncate_commit
// carrying wait baselines into the requeue, revoking around a two-phase
// hold), the per-job revocation cap, the fair-share preemption deadband,
// and EventQueue cancel/compaction under revocation churn.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/resource_ledger.h"
#include "core/session.h"
#include "grid/resource_pool.h"
#include "resilience/checkpoint_model.h"
#include "sim/event_queue.h"

namespace aheft {
namespace {

using core::ReservationEntry;
using core::ReservationState;
using core::ResourceLedger;
using resilience::CheckpointModel;
using resilience::ResilienceConfig;
using resilience::SegmentProgress;

// ---------------------------------------------------------------------
// Daly interval

TEST(DalyInterval, MatchesTheHigherOrderFormula) {
  const double delta = 0.5;
  const double mtbf = 250.0;
  const double ratio = delta / (2.0 * mtbf);
  const double expected = std::sqrt(2.0 * delta * mtbf) *
                              (1.0 + std::sqrt(ratio) / 3.0 + ratio / 9.0) -
                          delta;
  EXPECT_DOUBLE_EQ(resilience::daly_interval(delta, mtbf), expected);
  // Sanity on the magnitude: sqrt(2 * 0.5 * 250) ~ 15.8, minus delta.
  EXPECT_NEAR(resilience::daly_interval(delta, mtbf), 15.46, 0.1);
}

TEST(DalyInterval, ExpensiveDumpsDegenerateToOncePerFailure) {
  // delta >= M/2: checkpoint once per expected failure.
  EXPECT_DOUBLE_EQ(resilience::daly_interval(50.0, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(resilience::daly_interval(80.0, 100.0), 100.0);
}

TEST(DalyInterval, RejectsNonPositiveInputs) {
  EXPECT_THROW((void)resilience::daly_interval(0.0, 100.0),
               std::invalid_argument);
  EXPECT_THROW((void)resilience::daly_interval(1.0, 0.0),
               std::invalid_argument);
}

TEST(DalyInterval, CheaperWritesCheckpointMoreOften) {
  // The optimum interval shrinks ~sqrt(delta): halving the write cost
  // must shorten the interval (finer retention granularity).
  EXPECT_LT(resilience::daly_interval(0.25, 250.0),
            resilience::daly_interval(0.5, 250.0));
  EXPECT_LT(resilience::daly_interval(0.5, 250.0),
            resilience::daly_interval(2.0, 250.0));
}

TEST(EffectiveInterval, ExplicitKnobOverridesDaly) {
  CheckpointModel model;
  model.enabled = true;
  model.write_cost = 0.5;
  model.mtbf = 250.0;
  EXPECT_DOUBLE_EQ(resilience::effective_interval(model),
                   resilience::daly_interval(0.5, 250.0));
  model.interval = 42.0;
  EXPECT_DOUBLE_EQ(resilience::effective_interval(model), 42.0);
}

TEST(EffectiveInterval, DisabledModelThrows) {
  EXPECT_THROW((void)resilience::effective_interval(CheckpointModel{}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Segment occupancy

CheckpointModel explicit_model(double interval, double write_cost) {
  CheckpointModel model;
  model.enabled = true;
  model.write_cost = write_cost;
  model.interval = interval;
  return model;
}

TEST(SegmentOccupancy, InterleavesWritesBetweenCyclesOnly) {
  const CheckpointModel model = explicit_model(10.0, 1.0);
  // One cycle or less: completion persists the result, no write.
  EXPECT_DOUBLE_EQ(resilience::segment_occupancy(model, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(resilience::segment_occupancy(model, 4.0), 4.0);
  // 25 units = 3 cycles (10, 10, 5) with 2 interleaved writes.
  EXPECT_DOUBLE_EQ(resilience::segment_occupancy(model, 25.0), 27.0);
  // Exact multiple: the final cycle still ends on completion, not a write.
  EXPECT_DOUBLE_EQ(resilience::segment_occupancy(model, 30.0), 32.0);
}

TEST(SegmentOccupancy, DisabledOrEmptySegmentsPassThrough) {
  EXPECT_DOUBLE_EQ(resilience::segment_occupancy(CheckpointModel{}, 25.0),
                   25.0);
  EXPECT_DOUBLE_EQ(resilience::segment_occupancy(explicit_model(10.0, 1.0),
                                                 0.0),
                   0.0);
}

// ---------------------------------------------------------------------
// Segment progress (interrupted runs)

TEST(SegmentProgress, DegenerateModelLosesEverything) {
  const SegmentProgress p =
      resilience::segment_progress(CheckpointModel{}, 17.0, 40.0);
  EXPECT_DOUBLE_EQ(p.retained, 0.0);
  EXPECT_DOUBLE_EQ(p.overhead, 0.0);
  EXPECT_DOUBLE_EQ(p.lost, 17.0);
}

TEST(SegmentProgress, InterruptionBeforeFirstCheckpointLosesAll) {
  const CheckpointModel model = explicit_model(10.0, 1.0);
  // Interrupted mid-first-cycle: no image exists yet.
  const SegmentProgress p = resilience::segment_progress(model, 9.5, 40.0);
  EXPECT_DOUBLE_EQ(p.retained, 0.0);
  EXPECT_DOUBLE_EQ(p.lost, 9.5);
}

TEST(SegmentProgress, PartialWriteIsLostNotRetained) {
  const CheckpointModel model = explicit_model(10.0, 1.0);
  // Interrupted half-way through the first write (elapsed 10.5 of cycle
  // 11): the image is incomplete, so nothing is retained yet.
  const SegmentProgress p = resilience::segment_progress(model, 10.5, 40.0);
  EXPECT_DOUBLE_EQ(p.retained, 0.0);
  EXPECT_DOUBLE_EQ(p.lost, 10.5);
}

TEST(SegmentProgress, CompletedCheckpointsFloorTheProgress) {
  const CheckpointModel model = explicit_model(10.0, 1.0);
  // Two full cycles (22 elapsed) plus 3 units into the third: the image
  // holds 20 units; the write overhead is paid, the 3 units are lost.
  const SegmentProgress p = resilience::segment_progress(model, 25.0, 40.0);
  EXPECT_DOUBLE_EQ(p.retained, 20.0);
  EXPECT_DOUBLE_EQ(p.overhead, 2.0);
  EXPECT_DOUBLE_EQ(p.lost, 3.0);
  // Decomposition is exact: retained + overhead + lost == elapsed.
  EXPECT_DOUBLE_EQ(p.retained + p.overhead + p.lost, 25.0);
}

TEST(SegmentProgress, ElapsedIsClampedToTheSegmentOccupancy) {
  const CheckpointModel model = explicit_model(10.0, 1.0);
  // 25 units of work occupy 27; an "interruption" past that clamps, and
  // the final partial cycle (5 units) never wrote, so it counts as lost.
  const SegmentProgress p = resilience::segment_progress(model, 100.0, 25.0);
  EXPECT_DOUBLE_EQ(p.retained, 20.0);
  EXPECT_DOUBLE_EQ(p.overhead, 2.0);
  EXPECT_DOUBLE_EQ(p.lost, 5.0);
}

TEST(SegmentProgress, ZeroElapsedOrZeroWorkIsEmpty) {
  const CheckpointModel model = explicit_model(10.0, 1.0);
  const SegmentProgress a = resilience::segment_progress(model, 0.0, 40.0);
  EXPECT_DOUBLE_EQ(a.retained + a.overhead + a.lost, 0.0);
  const SegmentProgress b = resilience::segment_progress(model, 5.0, 0.0);
  EXPECT_DOUBLE_EQ(b.retained + b.overhead + b.lost, 0.0);
}

// ---------------------------------------------------------------------
// Config validation

TEST(ResilienceValidate, DefaultConfigIsValidAndInactive) {
  const ResilienceConfig config;
  EXPECT_FALSE(config.active());
  EXPECT_NO_THROW(resilience::validate(config));
}

TEST(ResilienceValidate, RejectsInconsistentKnobs) {
  ResilienceConfig config;
  config.departure_action = resilience::DepartureAction::kRequeue;
  config.checkpoint.enabled = true;  // no write cost, no interval source
  EXPECT_THROW(resilience::validate(config), std::invalid_argument);

  config.checkpoint.write_cost = 1.0;
  EXPECT_THROW(resilience::validate(config), std::invalid_argument);
  config.checkpoint.mtbf = 100.0;
  EXPECT_NO_THROW(resilience::validate(config));

  // The same model on an inactive config: nothing would ever interrupt a
  // job, so nothing would read it.
  config.departure_action = resilience::DepartureAction::kError;
  EXPECT_FALSE(config.active());
  EXPECT_THROW(resilience::validate(config), std::invalid_argument);

  config.preemption = true;  // the deadband is fixed: nothing to check
  EXPECT_NO_THROW(resilience::validate(config));
}

// ---------------------------------------------------------------------
// Ledger revocation bookkeeping

constexpr grid::ResourceId kR = 0;
constexpr grid::ResourceId kOther = 1;

ReservationEntry& upsert(ResourceLedger& ledger, std::size_t participant,
                         std::uint64_t tag, sim::Time ready,
                         double duration,
                         grid::ResourceId resource = kR) {
  return ledger.upsert(participant, resource, tag, ready, duration,
                       /*priority=*/1.0, /*active_since=*/0.0,
                       /*planned_span=*/0.0);
}

TEST(LedgerRevocation, TruncateWithCarryResumesTheWaitClock) {
  ResourceLedger ledger;
  upsert(ledger, 0, 7, /*ready=*/2.0, /*duration=*/30.0);
  ledger.commit(0, kR, 7, 10.0, 40.0);

  // Revocation at t=18: the window shrinks and the baseline is carried.
  ledger.truncate_commit(0, kR, 7, 18.0, /*carry_baseline=*/true);
  ASSERT_EQ(ledger.committed_windows(kR).size(), 1u);
  EXPECT_DOUBLE_EQ(ledger.committed_windows(kR).front().end, 18.0);
  EXPECT_DOUBLE_EQ(ledger.committed_until(kR), 18.0);

  // The requeue re-registers the remainder — on a different machine, as
  // the revocation path does — and resumes the original wait clock
  // instead of restarting it at the requeue time.
  const ReservationEntry& requeued =
      upsert(ledger, 0, 7, /*ready=*/18.0, /*duration=*/22.0, kOther);
  EXPECT_DOUBLE_EQ(requeued.first_ready, 2.0);
}

TEST(LedgerRevocation, TruncateWithoutCarryRestartsTheWaitClock) {
  ResourceLedger ledger;
  upsert(ledger, 0, 7, /*ready=*/2.0, /*duration=*/30.0);
  ledger.commit(0, kR, 7, 10.0, 40.0);

  // The historical reschedule path truncates without carrying.
  ledger.truncate_commit(0, kR, 7, 18.0);
  const ReservationEntry& again =
      upsert(ledger, 0, 7, /*ready=*/18.0, /*duration=*/22.0);
  EXPECT_DOUBLE_EQ(again.first_ready, 18.0);
}

TEST(LedgerRevocation, TruncationPastTheWindowEndIsANoOp) {
  ResourceLedger ledger;
  upsert(ledger, 0, 7, 0.0, 10.0);
  ledger.commit(0, kR, 7, 0.0, 10.0);
  ledger.truncate_commit(0, kR, 7, 25.0, /*carry_baseline=*/true);
  EXPECT_DOUBLE_EQ(ledger.committed_until(kR), 10.0);
  // No revocation happened, so no baseline was carried either.
  const ReservationEntry& fresh = upsert(ledger, 0, 7, 30.0, 5.0);
  EXPECT_DOUBLE_EQ(fresh.first_ready, 30.0);
}

TEST(LedgerRevocation, TruncateToTheStartEmptiesTheWindow) {
  ResourceLedger ledger;
  upsert(ledger, 0, 7, 0.0, 10.0);
  ledger.commit(0, kR, 7, 5.0, 15.0);
  // Revoked before it began running any useful wall time: the window
  // collapses to nothing and the floor falls back to zero.
  ledger.truncate_commit(0, kR, 7, 5.0, /*carry_baseline=*/true);
  EXPECT_TRUE(ledger.committed_windows(kR).empty());
  EXPECT_DOUBLE_EQ(ledger.committed_until(kR), 0.0);
}

TEST(LedgerRevocation, RevokingAroundATwoPhaseHoldLeavesTheClaimIntact) {
  ResourceLedger ledger;
  // Participant 0 runs committed work [0, 30); participant 1 holds a
  // two-phase claim behind it at [30, 40).
  upsert(ledger, 0, 1, 0.0, 30.0);
  ledger.commit(0, kR, 1, 0.0, 30.0);
  upsert(ledger, 1, 2, 0.0, 10.0);
  EXPECT_TRUE(ledger.hold(1, kR, 2, 30.0));

  // Participant 0's job is revoked at t=12. The held claim must survive
  // untouched — a hold is a granted start, not a committed occupation.
  ledger.truncate_commit(0, kR, 1, 12.0, /*carry_baseline=*/true);
  ASSERT_EQ(ledger.queue(kR).size(), 1u);
  const ReservationEntry& held = ledger.queue(kR).front();
  EXPECT_EQ(held.state, ReservationState::kHeld);
  EXPECT_DOUBLE_EQ(held.held_start, 30.0);

  // The holder can still re-arbitrate (earlier now that the machine
  // freed) and commit through the normal lifecycle.
  EXPECT_TRUE(ledger.hold(1, kR, 2, 12.0));
  const ReservationEntry committed = ledger.commit(1, kR, 2, 12.0, 22.0);
  EXPECT_EQ(committed.state, ReservationState::kCommitted);
  EXPECT_DOUBLE_EQ(ledger.committed_until_excluding(kR, 0), 22.0);
}

TEST(LedgerRevocation, WithdrawingAHeldClaimCarriesItsBaseline) {
  ResourceLedger ledger;
  upsert(ledger, 1, 2, /*ready=*/3.0, /*duration=*/10.0);
  ledger.hold(1, kR, 2, 20.0);
  // The machine departs before the re-arbitrated start: the two-phase
  // path abandons the held placement entirely.
  EXPECT_TRUE(ledger.withdraw(1, kR, 2));
  EXPECT_TRUE(ledger.queue(kR).empty());
  // The re-registration elsewhere resumes the wait clock.
  const ReservationEntry& moved =
      upsert(ledger, 1, 2, /*ready=*/25.0, /*duration=*/10.0, kOther);
  EXPECT_DOUBLE_EQ(moved.first_ready, 3.0);
}

// ---------------------------------------------------------------------
// Revocation cap and preemption deadband

TEST(RevocationCap, SixteenthRevocationAllowedSeventeenthRefused) {
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "only"});
  core::SessionEnvironment env;
  env.pool = &pool;
  env.resilience.departure_action = resilience::DepartureAction::kRequeue;
  core::SimulationSession session(env);
  core::SessionParticipant first;
  core::SessionParticipant second;
  session.add_participant(&first);
  session.add_participant(&second);
  ASSERT_EQ(resilience::kMaxRevocationsPerJob, 16u);
  for (std::size_t landed = 0; landed < 15; ++landed) {
    session.record_revocation(&first, 7);
  }
  EXPECT_TRUE(session.may_revoke(&first, 7));  // the 16th
  session.record_revocation(&first, 7);
  EXPECT_FALSE(session.may_revoke(&first, 7));  // the 17th
  // The cap is per job: another tag, or the same tag of another
  // participant, is untouched.
  EXPECT_TRUE(session.may_revoke(&first, 8));
  EXPECT_TRUE(session.may_revoke(&second, 7));
}

/// A participant with a fixed release-time plan that records the
/// revocations the session asks of it (and declines them).
struct PreemptionProbe : core::SessionParticipant {
  explicit PreemptionProbe(sim::Time finish) : finish(finish) {}
  [[nodiscard]] sim::Time planned_finish() const override { return finish; }
  bool revoke_committed(grid::ResourceId resource,
                        std::uint64_t tag) override {
    revoked.emplace_back(resource, tag);
    return false;
  }
  sim::Time finish;
  std::vector<std::pair<grid::ResourceId, std::uint64_t>> revoked;
};

/// One machine under fair share with preemption. The victim commits
/// [0, 1000) at t=0 with a release-time plan ending at `victim_finish`;
/// a requester planned to take 10 units asks for the machine at `now`
/// (ready since 0), so its stretch is now / 10 and the victim's is
/// now / victim_finish. Returns the revocations the victim received.
std::size_t preemptions(sim::Time victim_finish, sim::Time now) {
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "only"});
  core::SessionEnvironment env;
  env.pool = &pool;
  env.contention_policy = "fair-share";
  env.resilience.preemption = true;
  core::SimulationSession session(env);
  PreemptionProbe victim(victim_finish);
  PreemptionProbe requester(10.0);
  session.add_participant(&victim);
  session.add_participant(&requester);
  EXPECT_DOUBLE_EQ(session.acquire(&victim, 0, 0.0, 1000.0, 1), 0.0);
  session.commit(&victim, 0, 1, 0.0, 1000.0);
  session.simulator().run_until(now);
  EXPECT_DOUBLE_EQ(session.acquire(&requester, 0, 0.0, 10.0, 2), 1000.0);
  session.simulator().run_until(now);  // the eviction event, if any
  EXPECT_TRUE(requester.revoked.empty());
  for (const auto& [resource, tag] : victim.revoked) {
    EXPECT_EQ(resource, 0u);
    EXPECT_EQ(tag, 1u);
  }
  return victim.revoked.size();
}

TEST(PreemptionDeadband, RequesterOutsideTheBandRevokesTheBlockingWindow) {
  // Requester stretch 2.5 > kPreemptionMinStretch, and > kPreemptionRatio
  // times the victim's 0.025.
  EXPECT_EQ(preemptions(/*victim_finish=*/1000.0, /*now=*/25.0), 1u);
}

TEST(PreemptionDeadband, RequesterInsideTheBandDoesNot) {
  // Stretch 1.5: starved, but not past the floor.
  EXPECT_EQ(preemptions(/*victim_finish=*/1000.0, /*now=*/15.0), 0u);
  // Stretch 2.5 clears the floor, but not 1.25 times the victim's 2.5.
  EXPECT_EQ(preemptions(/*victim_finish=*/10.0, /*now=*/25.0), 0u);
}

// ---------------------------------------------------------------------
// EventQueue under revocation churn

TEST(EventQueueChurn, CancelCompactionInvariantHoldsUnderChurn) {
  sim::EventQueue queue;
  // Revocation churn: repeatedly schedule far-future completions (the
  // planned finish of a committed job) and cancel them (the job was
  // revoked and requeued). The heap must not grow without bound.
  std::vector<sim::EventId> live;
  for (int round = 0; round < 200; ++round) {
    std::vector<sim::EventId> doomed;
    for (int i = 0; i < 10; ++i) {
      doomed.push_back(
          queue.push(1000.0 + round * 10.0 + i, [] {}));
    }
    live.push_back(queue.push(500.0 + round, [] {}));
    for (const sim::EventId id : doomed) {
      EXPECT_TRUE(queue.cancel(id));
    }
    EXPECT_LE(queue.key_count(),
              std::max(2 * queue.live_count(),
                       sim::EventQueue::kCompactionFloor));
  }
  EXPECT_EQ(queue.live_count(), live.size());

  // Double-cancel and cancel-after-fire both report false.
  EXPECT_TRUE(queue.cancel(live.back()));
  EXPECT_FALSE(queue.cancel(live.back()));
  live.pop_back();

  // The survivors drain in time order despite the compactions.
  sim::Time last = -1.0;
  std::size_t fired = 0;
  while (!queue.empty()) {
    const sim::EventQueue::Fired event = queue.pop();
    EXPECT_GT(event.time, last);
    last = event.time;
    ++fired;
    EXPECT_FALSE(queue.cancel(event.id));
  }
  EXPECT_EQ(fired, live.size());
}

TEST(EventQueueChurn, CancelledHeadNeverFires) {
  sim::EventQueue queue;
  bool cancelled_ran = false;
  bool kept_ran = false;
  const sim::EventId head = queue.push(1.0, [&] { cancelled_ran = true; });
  queue.push(2.0, [&] { kept_ran = true; });
  EXPECT_TRUE(queue.cancel(head));
  EXPECT_DOUBLE_EQ(queue.next_time(), 2.0);
  queue.pop().action();
  EXPECT_FALSE(cancelled_ran);
  EXPECT_TRUE(kept_ran);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace aheft
