// ResourceLedger: the session-owned reservation timeline of every machine.
//
// Ownership contract: the ledger is the only record of machine time. Every
// request, hold and occupation window of every participant lives here and
// nowhere else — in particular, no participant keeps its own copy of how
// long its committed work keeps a machine busy. The session reads that
// horizon (committed_until_of) into every acquire and peek, the
// contention policies read everyone else's (committed_until_excluding),
// and planners read the foreign picture (snapshot_view). Participants
// change the ledger only through the session, so policy hooks and
// wakeups see every change. Advance-reservation grid schedulers
// centralize exactly this bookkeeping (Moise et al., "Advance Reservation
// of Resources for Task Execution in Grid Environments"): one
// per-resource ledger that arbitration, backfilling, and adaptation all
// read.
//
// The ledger tracks one timeline per resource. Every demand for machine
// time is an entry moving through a small lifecycle:
//
//   pending ---> committed        (the request started running)
//      |   \--> held ---> committed   (two-phase dynamic dispatch)
//      \--> withdrawn              (a reschedule dropped the request)
//
//  - pending    a registered acquisition waiting for (or holding) a grant;
//               lives in the resource's queue in registration order.
//  - held       a two-phase reservation: the owner accepted the granted
//               start but has not occupied the machine yet, so the claim
//               stays visible — and displaceable — until commit.
//  - committed  an occupation window [start, end); windows never overlap
//               per resource (asserted), which is the ledger's core
//               invariant. Committed windows of cancelled jobs are
//               truncated to the cancellation time, never erased.
//  - withdrawn  removed from the queue; the entry's wait baseline
//               (first_ready) is carried so a re-registration for the same
//               work resumes its wait clock instead of restarting it.
//
// The ledger is deliberately policy-free: it stores and orders entries,
// answers floor/hole queries, and leaves who-goes-first to the session's
// ContentionPolicy, which reads the queue through ContentionQuery.
//
// Storage is dense, because every key is already a dense id: timelines
// sit in a vector indexed by ResourceId (iterated in ascending id
// order), each timeline's committed windows in a vector sorted by
// (start, entry id), and per-participant state (the resources holding
// its queued entries, its carried wait baselines) in a vector indexed by
// the session's participant slot. Every operation costs work in the
// one resource's own entries, or in the one participant's own
// resources, never in the session's workflow count.
#ifndef AHEFT_CORE_RESOURCE_LEDGER_H_
#define AHEFT_CORE_RESOURCE_LEDGER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/availability_view.h"
#include "grid/resource.h"
#include "sim/time.h"

namespace aheft::core {

enum class ReservationState { kPending, kHeld, kCommitted, kWithdrawn };

[[nodiscard]] std::string to_string(ReservationState state);

/// One demand for machine time. Entries are keyed by
/// (participant, resource, tag): a participant may queue several
/// independent pieces of work on one machine (two-phase dynamic holds),
/// and a request withdrawn by a reschedule and re-registered under the
/// same tag keeps its wait baseline.
struct ReservationEntry {
  /// Ledger-assigned, unique, monotonically increasing.
  std::uint64_t id = 0;
  /// Session registration index of the owning workflow.
  std::size_t participant = 0;
  /// Caller-chosen identity of the work (engines pass the job id).
  std::uint64_t tag = 0;
  grid::ResourceId resource = grid::kInvalidResource;
  ReservationState state = ReservationState::kPending;
  /// Earliest start feasible for the owner itself (inputs, own bookings,
  /// machine arrival) as of the latest refresh.
  sim::Time ready = sim::kTimeZero;
  /// Projected nominal run length of the work behind the entry.
  double duration = 0.0;
  /// The owning workflow's priority / fair-share weight.
  double priority = 1.0;
  /// `ready` at first registration — the base of the wait metrics.
  sim::Time first_ready = sim::kTimeZero;
  /// When the owning workflow first asked the session for machine time
  /// (its activation): the base of fair-share stretch normalization.
  sim::Time active_since = sim::kTimeZero;
  /// Scale of the owning workflow: its release-time plan length. Zero
  /// when the owner does not plan ahead.
  double planned_span = 0.0;
  /// kHeld only: the start the policy granted when the hold was taken.
  /// The claim [held_start, held_start + duration) blocks backfilling.
  sim::Time held_start = sim::kTimeZero;
};

/// One committed occupation of a resource, kept for floor queries,
/// hole-finding, truncation, and the overlap invariant.
struct CommittedWindow {
  std::uint64_t entry = 0;  ///< ledger id of the committing entry
  std::size_t participant = 0;
  std::uint64_t tag = 0;
  sim::Time start = sim::kTimeZero;
  sim::Time end = sim::kTimeZero;
  /// The committing entry's wait baseline, preserved so a revocation can
  /// carry it back into the queue (see truncate_commit).
  sim::Time first_ready = sim::kTimeZero;
};

class ResourceLedger {
 public:
  /// Registers (or refreshes) the entry keyed (participant, resource,
  /// tag). A fresh registration consumes any carried wait baseline for
  /// (participant, tag); a refresh keeps the entry's queue position and
  /// first_ready. Held entries refresh back to pending only via hold().
  ReservationEntry& upsert(std::size_t participant,
                           grid::ResourceId resource, std::uint64_t tag,
                           sim::Time ready, double duration, double priority,
                           sim::Time active_since, double planned_span);

  /// The live queue entry for the key, or null.
  [[nodiscard]] const ReservationEntry* find(std::size_t participant,
                                             grid::ResourceId resource,
                                             std::uint64_t tag) const;

  /// Marks a pending entry held at `start` (two-phase dispatch: the owner
  /// accepted the grant but occupies the machine later). Re-holding an
  /// already-held entry refreshes its granted start. Returns whether the
  /// claim moved (a fresh hold, or a re-hold at a different start) — a
  /// moved claim may make another queued entry the effective head, so
  /// the session wakes the queue.
  bool hold(std::size_t participant, grid::ResourceId resource,
            std::uint64_t tag, sim::Time start);

  /// The entry started running over [start, end): removes it from the
  /// queue, appends the committed window, and returns the entry as it was
  /// at commit (the caller reads first_ready for wait accounting).
  /// Asserts the window overlaps no committed window on the resource.
  ReservationEntry commit(std::size_t participant, grid::ResourceId resource,
                          std::uint64_t tag, sim::Time start, sim::Time end);

  /// Withdraws every queued entry of `participant`, carrying each entry's
  /// first_ready so a later re-registration under the same tag resumes
  /// the wait clock. Returns the resources that lost entries, in
  /// ascending id order; visits only those resources.
  std::vector<grid::ResourceId> withdraw_all(std::size_t participant);

  /// Withdraws the single queued entry keyed (participant, resource,
  /// tag), carrying its wait baseline like withdraw_all. Returns whether
  /// an entry was removed. Two-phase dispatch uses this when a held
  /// placement must be abandoned (the machine departs before the
  /// re-arbitrated start).
  bool withdraw(std::size_t participant, grid::ResourceId resource,
                std::uint64_t tag);

  /// Truncates the committed window of (participant, tag) on `resource`
  /// to end at `at` (a reschedule or a revocation cancelled the running
  /// job behind it). No-op when no such window extends past `at`. With
  /// `carry_baseline` the truncated window's first_ready is carried like
  /// a withdrawal's, so the revoked work's re-registration under the
  /// same tag resumes its wait clock instead of restarting it — the
  /// revocation path opts in; the historical reschedule path does not
  /// (its wait metrics are a shipped baseline).
  void truncate_commit(std::size_t participant, grid::ResourceId resource,
                       std::uint64_t tag, sim::Time at,
                       bool carry_baseline = false);

  /// Pending + held entries of `resource` in registration order.
  [[nodiscard]] const std::vector<ReservationEntry>& queue(
      grid::ResourceId resource) const;

  /// Latest committed end on `resource` over every participant;
  /// kTimeZero when none.
  [[nodiscard]] sim::Time committed_until(grid::ResourceId resource) const;

  /// Latest committed end of `participant`'s own windows on `resource`;
  /// kTimeZero when it has none. The session raises the participant's
  /// requests to this horizon, so no participant keeps a copy of it.
  [[nodiscard]] sim::Time committed_until_of(grid::ResourceId resource,
                                             std::size_t participant) const;

  /// Latest committed end on `resource` over every participant except
  /// `participant` — the FCFS floor every policy builds on. Cost is
  /// proportional to the participants with commitments on this resource,
  /// not to the session's workflow count.
  [[nodiscard]] sim::Time committed_until_excluding(
      grid::ResourceId resource, std::size_t participant) const;

  /// Committed windows of `resource` in start order (truncated windows
  /// included; empty windows elided).
  [[nodiscard]] std::vector<CommittedWindow> committed_windows(
      grid::ResourceId resource) const;

  /// Planner-side availability snapshot: the merged foreign busy
  /// intervals per resource as of `now` — committed occupation windows
  /// still extending past `now` plus held two-phase claims (granted but
  /// not yet occupied, hence displaceable), both owner-filtered so a
  /// workflow never treats its own windows and claims as foreign load.
  /// Pending entries carry no granted start and are not part of the
  /// picture. The result is a value snapshot (normalized, start-sorted,
  /// disjoint per resource) stamped with `now`; snapshots taken at the
  /// same instant from the same ledger state are identical.
  [[nodiscard]] AvailabilityView snapshot_view(std::size_t owner,
                                               sim::Time now) const;

  /// Backfilling: the earliest start >= max(request.ready, now) of a
  /// `request.duration`-long hole in the resource's timeline that
  /// provably cannot delay any other reservation — it must fit before
  /// the next committed window and before any other queued entry's
  /// earliest feasible start (held claims block like windows). Returns
  /// nullopt when no such hole beats `policy_grant`.
  [[nodiscard]] std::optional<sim::Time> backfill_start(
      const ReservationEntry& request, sim::Time now,
      sim::Time policy_grant) const;

  /// Total queued (pending + held) entries across all resources.
  [[nodiscard]] std::size_t queued_count() const;

 private:
  struct Timeline {
    std::vector<ReservationEntry> queue;  ///< registration order
    /// Committed windows sorted by (start, entry id) for ordered hole
    /// scans. Truncation only moves a window's end, so the order holds.
    std::vector<CommittedWindow> committed;
    /// Latest committed end per participant as (participant, end) pairs
    /// sorted by participant (incrementally maintained; recomputed from
    /// the windows after a truncation).
    std::vector<std::pair<std::size_t, sim::Time>> committed_until_by;
  };

  /// What the ledger tracks per participant, across resources.
  struct ParticipantState {
    /// (resource, queued entry count) for every resource holding queued
    /// entries of the participant, sorted by resource: withdraw_all
    /// visits only these, in ascending id order.
    std::vector<std::pair<grid::ResourceId, std::size_t>> queued_on;
    /// first_ready of withdrawn entries as (tag, first_ready) pairs
    /// sorted by tag: a re-registration for the same work resumes the
    /// wait clock, so reschedules cannot erase contention wait already
    /// endured. Keyed without the resource — a reschedule may move the
    /// work elsewhere.
    std::vector<std::pair<std::uint64_t, sim::Time>> carried_first_ready;
  };

  /// The resource's timeline; null (mutable) or an empty timeline
  /// (const) when nothing was ever registered on it.
  [[nodiscard]] Timeline* timeline(grid::ResourceId resource);
  [[nodiscard]] const Timeline& timeline(grid::ResourceId resource) const;
  /// The participant's state, created on first use.
  ParticipantState& participant_state(std::size_t participant);
  /// Counts one fewer queued entry of `owner` on `resource`.
  static void note_dequeued(ParticipantState& owner,
                            grid::ResourceId resource);
  /// Carries `first_ready` for (owner, tag), keeping the earliest.
  static void carry(ParticipantState& owner, std::uint64_t tag,
                    sim::Time first_ready);

  /// One timeline per ResourceId, grown on first registration.
  std::vector<Timeline> timelines_;
  /// Indexed by the dense participant index.
  std::vector<ParticipantState> participants_;
  std::uint64_t next_id_ = 1;
};

}  // namespace aheft::core

#endif  // AHEFT_CORE_RESOURCE_LEDGER_H_
