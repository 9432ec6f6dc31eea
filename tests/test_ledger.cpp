// ResourceLedger unit tests: entry lifecycle (pending -> held ->
// committed / withdrawn), the committed-overlap invariant, wait-baseline
// carrying across withdrawals, truncation of cancelled commitments, the
// backfill hole-finder's no-delay guarantees, and a differential test
// against a naive reference ledger over random operation sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/resource_ledger.h"
#include "support/assert.h"
#include "support/rng.h"

namespace aheft::core {
namespace {

constexpr grid::ResourceId kR = 0;

ReservationEntry& upsert(ResourceLedger& ledger, std::size_t participant,
                         std::uint64_t tag, sim::Time ready,
                         double duration) {
  return ledger.upsert(participant, kR, tag, ready, duration,
                       /*priority=*/1.0, /*active_since=*/0.0,
                       /*planned_span=*/0.0);
}

TEST(ResourceLedger, UpsertRegistersOnceAndRefreshesInPlace) {
  ResourceLedger ledger;
  const ReservationEntry& first = upsert(ledger, 0, 7, 5.0, 10.0);
  EXPECT_EQ(first.state, ReservationState::kPending);
  EXPECT_DOUBLE_EQ(first.first_ready, 5.0);
  const std::uint64_t id = first.id;

  // A refresh for the same work keeps the id, queue slot, and baseline.
  upsert(ledger, 0, 7, 9.0, 12.0);
  ASSERT_EQ(ledger.queue(kR).size(), 1u);
  const ReservationEntry& refreshed = ledger.queue(kR).front();
  EXPECT_EQ(refreshed.id, id);
  EXPECT_DOUBLE_EQ(refreshed.ready, 9.0);
  EXPECT_DOUBLE_EQ(refreshed.duration, 12.0);
  EXPECT_DOUBLE_EQ(refreshed.first_ready, 5.0);

  // Different work of the same participant queues separately.
  upsert(ledger, 0, 8, 0.0, 3.0);
  EXPECT_EQ(ledger.queue(kR).size(), 2u);
  EXPECT_EQ(ledger.queued_count(), 2u);
}

TEST(ResourceLedger, CommitMovesEntryToTimeline) {
  ResourceLedger ledger;
  upsert(ledger, 0, 1, 0.0, 10.0);
  upsert(ledger, 1, 1, 0.0, 5.0);
  const ReservationEntry committed = ledger.commit(0, kR, 1, 0.0, 10.0);
  EXPECT_EQ(committed.state, ReservationState::kCommitted);
  EXPECT_EQ(ledger.queue(kR).size(), 1u);  // participant 1 still queued
  EXPECT_DOUBLE_EQ(ledger.committed_until(kR), 10.0);
  EXPECT_DOUBLE_EQ(ledger.committed_until_excluding(kR, 0), 0.0);
  EXPECT_DOUBLE_EQ(ledger.committed_until_excluding(kR, 1), 10.0);
  ASSERT_EQ(ledger.committed_windows(kR).size(), 1u);
  EXPECT_DOUBLE_EQ(ledger.committed_windows(kR).front().end, 10.0);
}

TEST(ResourceLedger, OverlappingCommitsViolateTheInvariant) {
  ResourceLedger ledger;
  upsert(ledger, 0, 1, 0.0, 10.0);
  (void)ledger.commit(0, kR, 1, 0.0, 10.0);
  upsert(ledger, 1, 1, 0.0, 5.0);
  EXPECT_THROW((void)ledger.commit(1, kR, 1, 5.0, 10.0), AssertionError);
  // Adjacent windows are legal: [10, 15) touches [0, 10) without overlap.
  upsert(ledger, 2, 1, 0.0, 5.0);
  EXPECT_NO_THROW((void)ledger.commit(2, kR, 1, 10.0, 15.0));
  // Backfilled windows land in holes BEFORE existing windows: committing
  // [20, 30) then [16, 18) is legal, [17, 22) is not.
  upsert(ledger, 0, 2, 20.0, 10.0);
  (void)ledger.commit(0, kR, 2, 20.0, 30.0);
  upsert(ledger, 1, 2, 16.0, 2.0);
  EXPECT_NO_THROW((void)ledger.commit(1, kR, 2, 16.0, 18.0));
  upsert(ledger, 2, 2, 17.0, 5.0);
  EXPECT_THROW((void)ledger.commit(2, kR, 2, 17.0, 22.0), AssertionError);
}

TEST(ResourceLedger, WithdrawCarriesTheWaitBaseline) {
  ResourceLedger ledger;
  upsert(ledger, 0, 7, 5.0, 10.0);
  const std::vector<grid::ResourceId> touched = ledger.withdraw_all(0);
  ASSERT_EQ(touched.size(), 1u);
  EXPECT_EQ(touched.front(), kR);
  EXPECT_EQ(ledger.queue(kR).size(), 0u);
  // Re-registration for the same work resumes the wait clock (min of the
  // carried and fresh ready), even at a later feasible time.
  const ReservationEntry& again = upsert(ledger, 0, 7, 30.0, 10.0);
  EXPECT_DOUBLE_EQ(again.first_ready, 5.0);
  // ...but only once: the carried baseline is consumed.
  ledger.withdraw_all(0);
  upsert(ledger, 0, 7, 12.0, 10.0);
  EXPECT_DOUBLE_EQ(ledger.queue(kR).front().first_ready, 5.0);
}

TEST(ResourceLedger, SingleWithdrawRemovesOnlyTheKeyedEntry) {
  ResourceLedger ledger;
  upsert(ledger, 0, 1, 0.0, 10.0);
  upsert(ledger, 0, 2, 0.0, 10.0);
  EXPECT_FALSE(ledger.withdraw(0, kR, 99));
  EXPECT_TRUE(ledger.withdraw(0, kR, 1));
  ASSERT_EQ(ledger.queue(kR).size(), 1u);
  EXPECT_EQ(ledger.queue(kR).front().tag, 2u);
}

TEST(ResourceLedger, TruncateReleasesTheCancelledRemainder) {
  ResourceLedger ledger;
  upsert(ledger, 0, 1, 0.0, 40.0);
  (void)ledger.commit(0, kR, 1, 0.0, 40.0);
  EXPECT_DOUBLE_EQ(ledger.committed_until_excluding(kR, 1), 40.0);
  // The running job behind the window is cancelled at t=15.
  ledger.truncate_commit(0, kR, 1, 15.0);
  EXPECT_DOUBLE_EQ(ledger.committed_until_excluding(kR, 1), 15.0);
  // The freed remainder is committable again without overlap.
  upsert(ledger, 1, 1, 15.0, 10.0);
  EXPECT_NO_THROW((void)ledger.commit(1, kR, 1, 15.0, 25.0));
  // Truncating an unknown window is a harmless no-op.
  ledger.truncate_commit(0, kR, 42, 0.0);
}

TEST(ResourceLedger, HoldKeepsTheClaimQueuedAndReportsMoves) {
  ResourceLedger ledger;
  upsert(ledger, 0, 1, 0.0, 10.0);
  EXPECT_TRUE(ledger.hold(0, kR, 1, 20.0));   // fresh hold: moved
  EXPECT_FALSE(ledger.hold(0, kR, 1, 20.0));  // unchanged: silent
  EXPECT_TRUE(ledger.hold(0, kR, 1, 30.0));   // re-arbitrated: moved
  const ReservationEntry* entry = ledger.find(0, kR, 1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, ReservationState::kHeld);
  EXPECT_DOUBLE_EQ(entry->held_start, 30.0);
  EXPECT_EQ(ledger.queue(kR).size(), 1u);  // still visible to policies
}

// ------------------------------------------------------------- backfill --

TEST(ResourceLedger, BackfillFindsTheFirstFittingHole) {
  ResourceLedger ledger;
  upsert(ledger, 0, 1, 50.0, 10.0);
  (void)ledger.commit(0, kR, 1, 50.0, 60.0);
  // Entries are copied out: later upserts may grow (and reallocate) the
  // queue, and backfill_start only needs the request's fields.
  const ReservationEntry request = upsert(ledger, 1, 1, 0.0, 5.0);
  // Deferred to 60 by the floor, but [0, 5) fits before the window.
  const auto hole = ledger.backfill_start(request, /*now=*/0.0,
                                          /*policy_grant=*/60.0);
  ASSERT_TRUE(hole.has_value());
  EXPECT_DOUBLE_EQ(*hole, 0.0);
  // A 55-unit request cannot fit before the window; sliding past it
  // reaches the policy grant, so there is nothing to gain. (The 5-unit
  // sibling entry is withdrawn so it does not fence its own owner.)
  ledger.withdraw(1, kR, 1);
  const ReservationEntry big = upsert(ledger, 1, 2, 0.0, 55.0);
  EXPECT_FALSE(ledger.backfill_start(big, 0.0, 60.0).has_value());
  // An undeferred request has nothing to gain either.
  EXPECT_FALSE(ledger.backfill_start(big, 0.0, 0.0).has_value());
}

TEST(ResourceLedger, BackfillRespectsQueuedRequestsAndHeldClaims) {
  ResourceLedger ledger;
  upsert(ledger, 0, 1, 50.0, 10.0);
  (void)ledger.commit(0, kR, 1, 50.0, 60.0);
  // A pending competitor feasible at t=2 fences the hole.
  upsert(ledger, 2, 1, 2.0, 20.0);
  const ReservationEntry request = upsert(ledger, 1, 1, 0.0, 5.0);
  EXPECT_FALSE(
      ledger.backfill_start(request, 0.0, 60.0).has_value());  // 5 > 2
  ledger.withdraw(1, kR, 1);
  const ReservationEntry tiny = upsert(ledger, 1, 2, 0.0, 2.0);
  const auto hole = ledger.backfill_start(tiny, 0.0, 60.0);
  ASSERT_TRUE(hole.has_value());  // ends exactly at the fence
  EXPECT_DOUBLE_EQ(*hole, 0.0);
  // A held claim blocks its window like a committed one.
  ledger.withdraw(1, kR, 2);
  ledger.withdraw_all(2);
  upsert(ledger, 2, 2, 0.0, 10.0);
  ledger.hold(2, kR, 2, 0.0);  // claim [0, 10)
  const ReservationEntry after = upsert(ledger, 1, 3, 0.0, 5.0);
  const auto shifted = ledger.backfill_start(after, 0.0, 60.0);
  ASSERT_TRUE(shifted.has_value());
  EXPECT_DOUBLE_EQ(*shifted, 10.0);  // first hole after the claim
}

// ----- snapshot_view: the planner-side availability picture ---------------

TEST(SnapshotView, MergesAdjacentAndOverlappingWindows) {
  ResourceLedger ledger;
  // Participant 1 commits [0, 10) and the touching [10, 15); participant 2
  // overlaps neither but held-claims [12, 20) — 12 < 15, so from owner 0's
  // point of view the three spans merge into one busy block.
  upsert(ledger, 1, 1, 0.0, 10.0);
  (void)ledger.commit(1, kR, 1, 0.0, 10.0);
  upsert(ledger, 1, 2, 10.0, 5.0);
  (void)ledger.commit(1, kR, 2, 10.0, 15.0);
  upsert(ledger, 2, 1, 0.0, 8.0);
  ledger.hold(2, kR, 1, 12.0);  // claim [12, 20)
  upsert(ledger, 1, 3, 30.0, 5.0);
  (void)ledger.commit(1, kR, 3, 30.0, 35.0);

  const AvailabilityView view = ledger.snapshot_view(/*owner=*/0, 0.0);
  ASSERT_EQ(view.busy(kR).size(), 2u);
  EXPECT_EQ(view.busy(kR)[0], (BusyInterval{0.0, 20.0}));
  EXPECT_EQ(view.busy(kR)[1], (BusyInterval{30.0, 35.0}));
  // Earliest-fit walks the merged free gaps.
  EXPECT_DOUBLE_EQ(view.earliest_fit(kR, 0.0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(view.earliest_fit(kR, 0.0, 5.0), 20.0);
  EXPECT_DOUBLE_EQ(view.earliest_fit(kR, 21.0, 20.0), 35.0);
}

TEST(SnapshotView, ExcludesTheOwnersOwnLoad) {
  ResourceLedger ledger;
  upsert(ledger, 0, 1, 0.0, 10.0);
  (void)ledger.commit(0, kR, 1, 0.0, 10.0);
  upsert(ledger, 0, 2, 0.0, 5.0);
  ledger.hold(0, kR, 2, 10.0);
  upsert(ledger, 1, 1, 20.0, 5.0);
  (void)ledger.commit(1, kR, 1, 20.0, 25.0);

  // Owner 0 sees only participant 1's window; owner 1 only 0's.
  const AvailabilityView mine = ledger.snapshot_view(0, 0.0);
  ASSERT_EQ(mine.busy(kR).size(), 1u);
  EXPECT_EQ(mine.busy(kR)[0], (BusyInterval{20.0, 25.0}));
  const AvailabilityView theirs = ledger.snapshot_view(1, 0.0);
  ASSERT_EQ(theirs.busy(kR).size(), 1u);
  EXPECT_EQ(theirs.busy(kR)[0], (BusyInterval{0.0, 15.0}));
  // A third workflow sees everything.
  EXPECT_EQ(ledger.snapshot_view(2, 0.0).interval_count(), 2u);
}

TEST(SnapshotView, FiltersHeldVersusCommittedAndElapsedLoad) {
  ResourceLedger ledger;
  // Committed history fully behind the snapshot instant: invisible.
  upsert(ledger, 1, 1, 0.0, 10.0);
  (void)ledger.commit(1, kR, 1, 0.0, 10.0);
  // Committed window straddling the instant: visible.
  upsert(ledger, 1, 2, 10.0, 10.0);
  (void)ledger.commit(1, kR, 2, 10.0, 20.0);
  // A pending entry has no granted start: invisible.
  upsert(ledger, 2, 1, 0.0, 50.0);
  // A held claim is granted load: visible.
  upsert(ledger, 3, 1, 0.0, 5.0);
  ledger.hold(3, kR, 1, 25.0);  // claim [25, 30)
  // A truncated-to-nothing commitment: invisible.
  upsert(ledger, 1, 3, 40.0, 10.0);
  (void)ledger.commit(1, kR, 3, 40.0, 50.0);
  ledger.truncate_commit(1, kR, 3, 40.0);

  const AvailabilityView view = ledger.snapshot_view(/*owner=*/0, 15.0);
  EXPECT_DOUBLE_EQ(view.snapshot_time(), 15.0);
  ASSERT_EQ(view.busy(kR).size(), 2u);
  EXPECT_EQ(view.busy(kR)[0], (BusyInterval{10.0, 20.0}));
  EXPECT_EQ(view.busy(kR)[1], (BusyInterval{25.0, 30.0}));
}

TEST(SnapshotView, SameInstantSnapshotsAreByteEqual) {
  ResourceLedger ledger;
  for (std::size_t p = 1; p <= 4; ++p) {
    const auto base = static_cast<sim::Time>(10 * p);
    upsert(ledger, p, 1, base, 6.0);
    (void)ledger.commit(p, kR, 1, base, base + 6.0);
    upsert(ledger, p, 2, 0.0, 3.0);
    ledger.hold(p, kR, 2, base + 50.0);
  }
  const AvailabilityView a = ledger.snapshot_view(0, 12.0);
  const AvailabilityView b = ledger.snapshot_view(0, 12.0);
  EXPECT_TRUE(a == b);
  // A view is a frozen value: later ledger motion must not leak into it.
  const AvailabilityView before = ledger.snapshot_view(0, 12.0);
  upsert(ledger, 1, 9, 100.0, 5.0);
  (void)ledger.commit(1, kR, 9, 100.0, 105.0);
  EXPECT_TRUE(before == a);
  EXPECT_FALSE(ledger.snapshot_view(0, 12.0) == a);
}

TEST(SnapshotView, EmptyViewConstrainsNothing) {
  const AvailabilityView view;
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.interval_count(), 0u);
  EXPECT_DOUBLE_EQ(view.earliest_fit(kR, 17.0, 100.0), 17.0);
}

// ----- differential: the ledger against a naive reference ----------------

/// Naive reference ledger: one flat list of every queued entry and one of
/// every committed window, ordered maps for per-key state, and a full scan
/// for every query. Same lifecycle semantics as ResourceLedger.
class ReferenceLedger {
 public:
  void upsert(std::size_t participant, grid::ResourceId resource,
              std::uint64_t tag, sim::Time ready, double duration,
              double priority, sim::Time active_since, double planned_span) {
    ReservationEntry* entry = find(participant, resource, tag);
    if (entry == nullptr) {
      ReservationEntry fresh;
      fresh.id = next_id_++;
      fresh.participant = participant;
      fresh.tag = tag;
      fresh.resource = resource;
      fresh.first_ready = ready;
      if (const auto carried = carried_.find({participant, tag});
          carried != carried_.end()) {
        fresh.first_ready = std::min(ready, carried->second);
        carried_.erase(carried);
      }
      queue_.push_back(fresh);
      entry = &queue_.back();
    }
    entry->ready = ready;
    entry->duration = duration;
    entry->priority = priority;
    entry->active_since = active_since;
    entry->planned_span = planned_span;
  }

  ReservationEntry* find(std::size_t participant, grid::ResourceId resource,
                         std::uint64_t tag) {
    for (ReservationEntry& entry : queue_) {
      if (entry.participant == participant && entry.resource == resource &&
          entry.tag == tag) {
        return &entry;
      }
    }
    return nullptr;
  }

  bool hold(std::size_t participant, grid::ResourceId resource,
            std::uint64_t tag, sim::Time start) {
    ReservationEntry& entry = *find(participant, resource, tag);
    const bool moved =
        entry.state != ReservationState::kHeld || entry.held_start != start;
    entry.state = ReservationState::kHeld;
    entry.held_start = start;
    return moved;
  }

  /// Whether a non-empty [start, end) meets a non-empty committed window.
  [[nodiscard]] bool overlaps(grid::ResourceId resource, sim::Time start,
                              sim::Time end) const {
    return end > start &&
           std::any_of(windows_.begin(), windows_.end(), [&](const auto& w) {
             return w.first == resource && w.second.end > w.second.start &&
                    w.second.start < end && w.second.end > start;
           });
  }

  void commit(std::size_t participant, grid::ResourceId resource,
              std::uint64_t tag, sim::Time start, sim::Time end) {
    const ReservationEntry* entry = find(participant, resource, tag);
    windows_.emplace_back(resource,
                          CommittedWindow{entry->id, participant, tag, start,
                                          end, entry->first_ready});
    sim::Time& horizon = horizon_[{resource, participant}];
    horizon = std::max(horizon, end);
    carried_.erase({participant, tag});
    queue_.erase(queue_.begin() + (entry - queue_.data()));
  }

  std::vector<grid::ResourceId> withdraw_all(std::size_t participant) {
    std::set<grid::ResourceId> touched;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->participant == participant) {
        carry(participant, it->tag, it->first_ready);
        touched.insert(it->resource);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    return {touched.begin(), touched.end()};
  }

  bool withdraw(std::size_t participant, grid::ResourceId resource,
                std::uint64_t tag) {
    const ReservationEntry* entry = find(participant, resource, tag);
    if (entry == nullptr) {
      return false;
    }
    carry(participant, tag, entry->first_ready);
    queue_.erase(queue_.begin() + (entry - queue_.data()));
    return true;
  }

  void truncate_commit(std::size_t participant, grid::ResourceId resource,
                       std::uint64_t tag, sim::Time at, bool carry_baseline) {
    bool truncated = false;
    for (auto& [r, window] : windows_) {
      if (r == resource && window.participant == participant &&
          window.tag == tag && window.end > at) {
        window.end = std::max(window.start, at);
        truncated = true;
        if (carry_baseline) {
          carry(participant, tag, window.first_ready);
        }
      }
    }
    if (!truncated) {
      return;
    }
    sim::Time horizon = sim::kTimeZero;
    for (const auto& [r, window] : windows_) {
      if (r == resource && window.participant == participant &&
          window.end > window.start) {
        horizon = std::max(horizon, window.end);
      }
    }
    horizon_[{resource, participant}] = horizon;
  }

  [[nodiscard]] std::vector<ReservationEntry> queue(
      grid::ResourceId resource) const {
    std::vector<ReservationEntry> out;
    for (const ReservationEntry& entry : queue_) {
      if (entry.resource == resource) {
        out.push_back(entry);
      }
    }
    return out;
  }

  [[nodiscard]] std::size_t queued_count() const { return queue_.size(); }

  [[nodiscard]] sim::Time committed_until_excluding(
      grid::ResourceId resource, std::size_t excluded) const {
    sim::Time until = sim::kTimeZero;
    for (const auto& [key, end] : horizon_) {
      if (key.first == resource && key.second != excluded) {
        until = std::max(until, end);
      }
    }
    return until;
  }

  [[nodiscard]] std::vector<CommittedWindow> committed_windows(
      grid::ResourceId resource) const {
    std::vector<CommittedWindow> out;
    for (const auto& [r, window] : windows_) {
      if (r == resource && window.end > window.start) {
        out.push_back(window);
      }
    }
    std::sort(out.begin(), out.end(),
              [](const CommittedWindow& a, const CommittedWindow& b) {
                return std::tie(a.start, a.entry) < std::tie(b.start, b.entry);
              });
    return out;
  }

  [[nodiscard]] const std::vector<std::pair<grid::ResourceId,
                                            CommittedWindow>>&
  all_windows() const {
    return windows_;
  }
  [[nodiscard]] const std::vector<ReservationEntry>& all_queued() const {
    return queue_;
  }

  [[nodiscard]] AvailabilityView snapshot_view(std::size_t owner,
                                               sim::Time now) const {
    AvailabilityView view(now);
    for (const auto& [r, window] : windows_) {
      if (window.participant != owner && window.end > now &&
          window.end > window.start) {
        view.add_busy(r, window.start, window.end);
      }
    }
    for (const ReservationEntry& entry : queue_) {
      if (entry.participant != owner &&
          entry.state == ReservationState::kHeld &&
          entry.held_start + entry.duration > now) {
        view.add_busy(entry.resource, entry.held_start,
                      entry.held_start + entry.duration);
      }
    }
    view.normalize();
    return view;
  }

  [[nodiscard]] std::optional<sim::Time> backfill_start(
      const ReservationEntry& request, sim::Time now,
      sim::Time policy_grant) const {
    const sim::Time base = std::max(request.ready, now);
    if (sim::time_le(policy_grant, base)) {
      return std::nullopt;
    }
    std::vector<std::pair<sim::Time, sim::Time>> blockers;
    for (const auto& [r, window] : windows_) {
      if (r == request.resource && window.end > base &&
          window.end > window.start) {
        blockers.emplace_back(window.start, window.end);
      }
    }
    sim::Time fence = sim::kTimeInfinity;
    for (const ReservationEntry& other : queue_) {
      if (other.resource != request.resource || other.id == request.id) {
        continue;
      }
      if (other.state == ReservationState::kHeld) {
        blockers.emplace_back(other.held_start,
                              other.held_start + other.duration);
      } else {
        fence = std::min(fence, std::max(other.ready, now));
      }
    }
    std::sort(blockers.begin(), blockers.end());
    sim::Time start = base;
    for (const auto& [blocker_start, blocker_end] : blockers) {
      if (sim::time_ge(blocker_start, start + request.duration)) {
        break;
      }
      start = std::max(start, blocker_end);
    }
    if (sim::time_le(start + request.duration, fence) &&
        start < policy_grant && !sim::time_eq(start, policy_grant)) {
      return start;
    }
    return std::nullopt;
  }

 private:
  void carry(std::size_t participant, std::uint64_t tag,
             sim::Time first_ready) {
    const auto [it, inserted] =
        carried_.try_emplace({participant, tag}, first_ready);
    if (!inserted) {
      it->second = std::min(it->second, first_ready);
    }
  }

  std::vector<ReservationEntry> queue_;  ///< registration order
  std::vector<std::pair<grid::ResourceId, CommittedWindow>> windows_;
  std::map<std::pair<grid::ResourceId, std::size_t>, sim::Time> horizon_;
  std::map<std::pair<std::size_t, std::uint64_t>, sim::Time> carried_;
  std::uint64_t next_id_ = 1;
};

void expect_same_entries(const std::vector<ReservationEntry>& actual,
                         const std::vector<ReservationEntry>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const ReservationEntry& a = actual[i];
    const ReservationEntry& e = expected[i];
    EXPECT_EQ(a.id, e.id);
    EXPECT_EQ(a.participant, e.participant);
    EXPECT_EQ(a.tag, e.tag);
    EXPECT_EQ(a.resource, e.resource);
    EXPECT_EQ(a.state, e.state);
    EXPECT_EQ(a.ready, e.ready);
    EXPECT_EQ(a.duration, e.duration);
    EXPECT_EQ(a.priority, e.priority);
    EXPECT_EQ(a.first_ready, e.first_ready);
    EXPECT_EQ(a.active_since, e.active_since);
    EXPECT_EQ(a.planned_span, e.planned_span);
    EXPECT_EQ(a.held_start, e.held_start);
  }
}

void expect_same_windows(const std::vector<CommittedWindow>& actual,
                         const std::vector<CommittedWindow>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].entry, expected[i].entry);
    EXPECT_EQ(actual[i].participant, expected[i].participant);
    EXPECT_EQ(actual[i].tag, expected[i].tag);
    EXPECT_EQ(actual[i].start, expected[i].start);
    EXPECT_EQ(actual[i].end, expected[i].end);
    EXPECT_EQ(actual[i].first_ready, expected[i].first_ready);
  }
}

constexpr std::size_t kDiffResources = 4;
constexpr std::size_t kDiffParticipants = 4;

/// Every query of the two ledgers agrees. `now` and the policy grants are
/// drawn from `rng` so the time filters are exercised too.
void expect_same_ledgers(const ResourceLedger& ledger,
                         const ReferenceLedger& reference, RngStream& rng) {
  EXPECT_EQ(ledger.queued_count(), reference.queued_count());
  for (grid::ResourceId r = 0; r < kDiffResources; ++r) {
    expect_same_entries(ledger.queue(r), reference.queue(r));
    expect_same_windows(ledger.committed_windows(r),
                        reference.committed_windows(r));
    // Participant kDiffParticipants never registers: the plain maximum.
    EXPECT_EQ(ledger.committed_until(r),
              reference.committed_until_excluding(r, kDiffParticipants));
    for (std::size_t p = 0; p < kDiffParticipants; ++p) {
      EXPECT_EQ(ledger.committed_until_excluding(r, p),
                reference.committed_until_excluding(r, p));
    }
    for (const ReservationEntry& entry : reference.queue(r)) {
      const sim::Time now = 0.5 * static_cast<double>(rng.index(120));
      const sim::Time grant =
          entry.ready + 0.5 * static_cast<double>(rng.index(80));
      EXPECT_EQ(ledger.backfill_start(entry, now, grant),
                reference.backfill_start(entry, now, grant));
    }
  }
  const sim::Time now = 0.5 * static_cast<double>(rng.index(120));
  for (std::size_t owner = 0; owner <= kDiffParticipants; ++owner) {
    EXPECT_TRUE(ledger.snapshot_view(owner, now) ==
                reference.snapshot_view(owner, now));
  }
}

TEST(ResourceLedgerDifferential, AgreesWithNaiveReferenceOnRandomSequences) {
  constexpr std::size_t kTags = 6;
  constexpr std::size_t kSteps = 80;
  // How often the sequences reached the cases the dense containers must
  // get right; each must occur for the test to mean anything.
  std::size_t commits_before_windows = 0;
  std::size_t zero_width_truncations = 0;
  std::size_t holds = 0;
  std::size_t carried_baselines = 0;
  std::size_t rejected_overlaps = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    RngStream rng(seed);
    ResourceLedger ledger;
    ReferenceLedger reference;
    const auto time = [&rng] {
      return 0.5 * static_cast<double>(rng.index(200));
    };
    for (std::size_t step = 0; step < kSteps; ++step) {
      const std::size_t p = rng.index(kDiffParticipants);
      const auto r = static_cast<grid::ResourceId>(rng.index(kDiffResources));
      const std::uint64_t tag = rng.index(kTags);
      const std::vector<ReservationEntry>& queued = reference.all_queued();
      switch (rng.index(10)) {
        case 0:
        case 1:
        case 2: {
          const sim::Time ready = time();
          const double duration = 0.5 * static_cast<double>(rng.index(30));
          const double priority = 1.0 + static_cast<double>(rng.index(3));
          const sim::Time active = time();
          const double span = time();
          const bool fresh = reference.find(p, r, tag) == nullptr;
          reference.upsert(p, r, tag, ready, duration, priority, active,
                           span);
          const ReservationEntry& entry = ledger.upsert(
              p, r, tag, ready, duration, priority, active, span);
          if (fresh && entry.first_ready < ready) {
            ++carried_baselines;
          }
          break;
        }
        case 3: {
          if (queued.empty()) {
            break;
          }
          const ReservationEntry e = queued[rng.index(queued.size())];
          const sim::Time start = time();
          ++holds;
          EXPECT_EQ(ledger.hold(e.participant, e.resource, e.tag, start),
                    reference.hold(e.participant, e.resource, e.tag, start));
          break;
        }
        case 4:
        case 5: {
          if (queued.empty()) {
            break;
          }
          const ReservationEntry e = queued[rng.index(queued.size())];
          const sim::Time start = time();
          const sim::Time end =
              start + 0.5 * static_cast<double>(rng.index(20));
          if (reference.overlaps(e.resource, start, end)) {
            ++rejected_overlaps;
            EXPECT_THROW((void)ledger.commit(e.participant, e.resource,
                                             e.tag, start, end),
                         AssertionError);
            break;
          }
          const std::vector<CommittedWindow> existing =
              reference.committed_windows(e.resource);
          if (!existing.empty() && start < existing.back().start) {
            ++commits_before_windows;
          }
          reference.commit(e.participant, e.resource, e.tag, start, end);
          (void)ledger.commit(e.participant, e.resource, e.tag, start, end);
          break;
        }
        case 6:
          EXPECT_EQ(ledger.withdraw(p, r, tag),
                    reference.withdraw(p, r, tag));
          break;
        case 7:
          EXPECT_EQ(ledger.withdraw_all(p), reference.withdraw_all(p));
          break;
        default: {
          // Truncate a real window half the time, at its start (a
          // zero-width result) or at a random instant; else a random key.
          const auto& windows = reference.all_windows();
          const bool carry = rng.bernoulli(0.5);
          if (!windows.empty() && rng.bernoulli(0.5)) {
            const auto& [wr, w] = windows[rng.index(windows.size())];
            const bool at_start = rng.bernoulli(0.5);
            const sim::Time at = at_start ? w.start : time();
            if (at_start && w.end > w.start) {
              ++zero_width_truncations;
            }
            const std::size_t owner = w.participant;
            const std::uint64_t wtag = w.tag;
            const grid::ResourceId resource = wr;
            reference.truncate_commit(owner, resource, wtag, at, carry);
            ledger.truncate_commit(owner, resource, wtag, at, carry);
          } else {
            const sim::Time at = time();
            reference.truncate_commit(p, r, tag, at, carry);
            ledger.truncate_commit(p, r, tag, at, carry);
          }
          break;
        }
      }
      expect_same_ledgers(ledger, reference, rng);
      if (HasFailure()) {
        return;
      }
    }
  }
  EXPECT_GT(commits_before_windows, 0u);
  EXPECT_GT(zero_width_truncations, 0u);
  EXPECT_GT(holds, 0u);
  EXPECT_GT(carried_baselines, 0u);
  EXPECT_GT(rejected_overlaps, 0u);
}

}  // namespace
}  // namespace aheft::core
