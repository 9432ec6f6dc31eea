#include "core/resource_ledger.h"

#include <algorithm>

#include "support/assert.h"

namespace aheft::core {

std::string to_string(ReservationState state) {
  switch (state) {
    case ReservationState::kPending:
      return "pending";
    case ReservationState::kHeld:
      return "held";
    case ReservationState::kCommitted:
      return "committed";
    case ReservationState::kWithdrawn:
      return "withdrawn";
  }
  return "unknown";
}

namespace {

/// Committed windows order by (start, entry id).
bool window_before(const CommittedWindow& window,
                   const std::pair<sim::Time, std::uint64_t>& key) {
  return std::make_pair(window.start, window.entry) < key;
}

/// Lower bound of `key` in a vector of (key, value) pairs sorted by key.
template <typename Pairs, typename Key>
auto key_bound(Pairs& pairs, Key key) {
  return std::lower_bound(
      pairs.begin(), pairs.end(), key,
      [](const auto& pair, Key k) { return pair.first < k; });
}

/// The value under `key` in a sorted (key, value) vector, inserted as
/// `fresh` when absent.
template <typename Key, typename Value>
Value& value_at(std::vector<std::pair<Key, Value>>& pairs, Key key,
                Value fresh) {
  auto it = key_bound(pairs, key);
  if (it == pairs.end() || it->first != key) {
    it = pairs.insert(it, {key, fresh});
  }
  return it->second;
}

/// Removes `key` from a sorted (key, value) vector, returning its value.
template <typename Key, typename Value>
std::optional<Value> take(std::vector<std::pair<Key, Value>>& pairs,
                          Key key) {
  const auto it = key_bound(pairs, key);
  if (it == pairs.end() || it->first != key) {
    return std::nullopt;
  }
  const Value value = it->second;
  pairs.erase(it);
  return value;
}

}  // namespace

ResourceLedger::Timeline* ResourceLedger::timeline(
    grid::ResourceId resource) {
  return resource < timelines_.size() ? &timelines_[resource] : nullptr;
}

const ResourceLedger::Timeline& ResourceLedger::timeline(
    grid::ResourceId resource) const {
  static const Timeline kEmpty;
  return resource < timelines_.size() ? timelines_[resource] : kEmpty;
}

ResourceLedger::ParticipantState& ResourceLedger::participant_state(
    std::size_t participant) {
  if (participant >= participants_.size()) {
    participants_.resize(participant + 1);
  }
  return participants_[participant];
}

void ResourceLedger::note_dequeued(ParticipantState& owner,
                                   grid::ResourceId resource) {
  const auto it = key_bound(owner.queued_on, resource);
  AHEFT_ASSERT(it != owner.queued_on.end() && it->first == resource,
               "dequeue of an entry the participant never queued");
  if (--it->second == 0) {
    owner.queued_on.erase(it);
  }
}

void ResourceLedger::carry(ParticipantState& owner, std::uint64_t tag,
                           sim::Time first_ready) {
  sim::Time& carried = value_at(owner.carried_first_ready, tag, first_ready);
  carried = std::min(carried, first_ready);
}

ReservationEntry& ResourceLedger::upsert(std::size_t participant,
                                         grid::ResourceId resource,
                                         std::uint64_t tag, sim::Time ready,
                                         double duration, double priority,
                                         sim::Time active_since,
                                         double planned_span) {
  AHEFT_REQUIRE(duration >= 0.0, "reservation duration must be >= 0");
  AHEFT_REQUIRE(resource != grid::kInvalidResource,
                "reservation needs a valid resource");
  if (resource >= timelines_.size()) {
    timelines_.resize(static_cast<std::size_t>(resource) + 1);
  }
  Timeline& line = timelines_[resource];
  ReservationEntry* entry = nullptr;
  for (ReservationEntry& candidate : line.queue) {
    if (candidate.participant == participant && candidate.tag == tag) {
      entry = &candidate;
      break;
    }
  }
  if (entry == nullptr) {
    ReservationEntry fresh;
    fresh.id = next_id_++;
    fresh.participant = participant;
    fresh.tag = tag;
    fresh.resource = resource;
    fresh.first_ready = ready;
    // Work withdrawn by a reschedule and re-requested resumes its wait
    // clock instead of restarting it.
    ParticipantState& owner = participant_state(participant);
    if (const auto carried = take(owner.carried_first_ready, tag)) {
      fresh.first_ready = std::min(fresh.first_ready, *carried);
    }
    ++value_at(owner.queued_on, resource, std::size_t{0});
    line.queue.push_back(fresh);
    entry = &line.queue.back();
  }
  entry->ready = ready;
  entry->duration = duration;
  entry->priority = priority;
  entry->active_since = active_since;
  entry->planned_span = planned_span;
  return *entry;
}

const ReservationEntry* ResourceLedger::find(std::size_t participant,
                                             grid::ResourceId resource,
                                             std::uint64_t tag) const {
  for (const ReservationEntry& entry : timeline(resource).queue) {
    if (entry.participant == participant && entry.tag == tag) {
      return &entry;
    }
  }
  return nullptr;
}

bool ResourceLedger::hold(std::size_t participant, grid::ResourceId resource,
                          std::uint64_t tag, sim::Time start) {
  Timeline* line = timeline(resource);
  AHEFT_ASSERT(line != nullptr, "hold on a resource with no reservations");
  for (ReservationEntry& entry : line->queue) {
    if (entry.participant == participant && entry.tag == tag) {
      const bool moved = entry.state != ReservationState::kHeld ||
                         entry.held_start != start;
      entry.state = ReservationState::kHeld;
      entry.held_start = start;
      return moved;
    }
  }
  AHEFT_ASSERT(false, "hold without a queued reservation for the work");
  return false;
}

ReservationEntry ResourceLedger::commit(std::size_t participant,
                                        grid::ResourceId resource,
                                        std::uint64_t tag, sim::Time start,
                                        sim::Time end) {
  AHEFT_ASSERT(sim::time_le(start, end),
               "committed reservation must have start <= end");
  Timeline* line = timeline(resource);
  AHEFT_ASSERT(line != nullptr,
               "commit on a resource with no reservations");
  const auto it = std::find_if(
      line->queue.begin(), line->queue.end(),
      [participant, tag](const ReservationEntry& entry) {
        return entry.participant == participant && entry.tag == tag;
      });
  AHEFT_ASSERT(it != line->queue.end(),
               "commit without a queued reservation for the work");

  // Core invariant: committed windows never overlap on one resource. An
  // overlap means two workflows believe they occupy the same machine at
  // once — arbitration failed somewhere upstream. Windows are start-sorted
  // and pairwise disjoint, so ends are sorted too: only the nearest
  // non-empty neighbor on each side can conflict (fully-truncated windows
  // are zero-width and skipped).
  if (end > start) {
    const auto next =
        std::lower_bound(line->committed.begin(), line->committed.end(),
                         std::make_pair(start, std::uint64_t{0}),
                         window_before);
    for (auto before = next; before != line->committed.begin();) {
      --before;
      if (before->end <= before->start) {
        continue;  // truncated to nothing
      }
      AHEFT_ASSERT(sim::time_le(before->end, start),
                   "overlapping committed reservations on one resource");
      break;
    }
    for (auto after = next;
         after != line->committed.end() && after->start < end; ++after) {
      AHEFT_ASSERT(after->end <= after->start,
                   "overlapping committed reservations on one resource");
    }
  }

  ReservationEntry committed = *it;
  committed.state = ReservationState::kCommitted;
  line->committed.insert(
      std::lower_bound(line->committed.begin(), line->committed.end(),
                       std::make_pair(start, committed.id), window_before),
      CommittedWindow{committed.id, participant, tag, start, end,
                      committed.first_ready});
  sim::Time& horizon =
      value_at(line->committed_until_by, participant, sim::kTimeZero);
  horizon = std::max(horizon, end);
  ParticipantState& owner = participants_[participant];
  (void)take(owner.carried_first_ready, tag);
  note_dequeued(owner, resource);
  line->queue.erase(it);
  return committed;
}

std::vector<grid::ResourceId> ResourceLedger::withdraw_all(
    std::size_t participant) {
  std::vector<grid::ResourceId> touched;
  if (participant >= participants_.size()) {
    return touched;
  }
  ParticipantState& owner = participants_[participant];
  touched.reserve(owner.queued_on.size());
  for (const auto& [resource, count] : owner.queued_on) {
    std::vector<ReservationEntry>& queue = timelines_[resource].queue;
    const auto stale = std::remove_if(
        queue.begin(), queue.end(),
        [&owner, participant](const ReservationEntry& entry) {
          if (entry.participant != participant) {
            return false;
          }
          // Keep the wait baseline: the reschedule may re-request the
          // same work (same tag) and must not zero the contention wait
          // already endured.
          carry(owner, entry.tag, entry.first_ready);
          return true;
        });
    AHEFT_ASSERT(static_cast<std::size_t>(queue.end() - stale) == count,
                 "queued-entry count out of step with the resource queue");
    queue.erase(stale, queue.end());
    touched.push_back(resource);
  }
  owner.queued_on.clear();
  return touched;
}

bool ResourceLedger::withdraw(std::size_t participant,
                              grid::ResourceId resource, std::uint64_t tag) {
  Timeline* line = timeline(resource);
  if (line == nullptr) {
    return false;
  }
  const auto it = std::find_if(
      line->queue.begin(), line->queue.end(),
      [participant, tag](const ReservationEntry& entry) {
        return entry.participant == participant && entry.tag == tag;
      });
  if (it == line->queue.end()) {
    return false;
  }
  ParticipantState& owner = participants_[participant];
  carry(owner, tag, it->first_ready);
  note_dequeued(owner, resource);
  line->queue.erase(it);
  return true;
}

void ResourceLedger::truncate_commit(std::size_t participant,
                                     grid::ResourceId resource,
                                     std::uint64_t tag, sim::Time at,
                                     bool carry_baseline) {
  Timeline* line = timeline(resource);
  if (line == nullptr) {
    return;
  }
  bool truncated = false;
  for (CommittedWindow& window : line->committed) {
    if (window.participant == participant && window.tag == tag &&
        window.end > at) {
      window.end = std::max(window.start, at);
      truncated = true;
      if (carry_baseline) {
        carry(participant_state(participant), tag, window.first_ready);
      }
    }
  }
  if (!truncated) {
    return;
  }
  // The participant's committed horizon may have shrunk: recompute it
  // from the surviving windows (truncations are rare — one per restarted
  // job — so the scan is off the hot path).
  sim::Time horizon = sim::kTimeZero;
  for (const CommittedWindow& window : line->committed) {
    // Fully truncated (empty) windows are elided everywhere else; a
    // revoked job that never ran must not leave a phantom floor either.
    if (window.participant == participant && window.end > window.start) {
      horizon = std::max(horizon, window.end);
    }
  }
  value_at(line->committed_until_by, participant, sim::kTimeZero) = horizon;
}

const std::vector<ReservationEntry>& ResourceLedger::queue(
    grid::ResourceId resource) const {
  return timeline(resource).queue;
}

sim::Time ResourceLedger::committed_until(grid::ResourceId resource) const {
  sim::Time until = sim::kTimeZero;
  for (const auto& [owner, end] : timeline(resource).committed_until_by) {
    until = std::max(until, end);
  }
  return until;
}

sim::Time ResourceLedger::committed_until_of(grid::ResourceId resource,
                                              std::size_t participant) const {
  const auto& horizons = timeline(resource).committed_until_by;
  const auto it = key_bound(horizons, participant);
  return it != horizons.end() && it->first == participant ? it->second
                                                          : sim::kTimeZero;
}

sim::Time ResourceLedger::committed_until_excluding(
    grid::ResourceId resource, std::size_t participant) const {
  sim::Time until = sim::kTimeZero;
  for (const auto& [owner, end] : timeline(resource).committed_until_by) {
    if (owner != participant) {
      until = std::max(until, end);
    }
  }
  return until;
}

std::vector<CommittedWindow> ResourceLedger::committed_windows(
    grid::ResourceId resource) const {
  const Timeline& line = timeline(resource);
  std::vector<CommittedWindow> windows;
  windows.reserve(line.committed.size());
  for (const CommittedWindow& window : line.committed) {
    if (window.end > window.start) {
      windows.push_back(window);
    }
  }
  return windows;
}

AvailabilityView ResourceLedger::snapshot_view(std::size_t owner,
                                               sim::Time now) const {
  AvailabilityView view(now);
  for (grid::ResourceId resource = 0; resource < timelines_.size();
       ++resource) {
    const Timeline& line = timelines_[resource];
    // Committed windows: occupation that is still (partly) ahead of the
    // snapshot instant. Fully-elapsed and fully-truncated windows cannot
    // constrain a plan whose starts are >= now.
    for (const CommittedWindow& window : line.committed) {
      if (window.participant != owner && window.end > now &&
          window.end > window.start) {
        view.add_busy(resource, window.start, window.end);
      }
    }
    // Held two-phase claims: a granted start the owner accepted but has
    // not occupied yet. Displaceable by the policy, but until displaced
    // they are load a plan should price. Pending entries have no granted
    // start and stay invisible.
    for (const ReservationEntry& entry : line.queue) {
      if (entry.participant != owner &&
          entry.state == ReservationState::kHeld &&
          entry.held_start + entry.duration > now) {
        view.add_busy(resource, entry.held_start,
                      entry.held_start + entry.duration);
      }
    }
  }
  view.normalize();
  return view;
}

std::optional<sim::Time> ResourceLedger::backfill_start(
    const ReservationEntry& request, sim::Time now,
    sim::Time policy_grant) const {
  const sim::Time base = std::max(request.ready, now);
  if (sim::time_le(policy_grant, base)) {
    return std::nullopt;  // not deferred: nothing to gain
  }
  const Timeline& line = timeline(request.resource);

  // Blockers: committed windows plus held claims, as (start, end) spans.
  // Both are reservations earlier in the timeline that a backfilled job
  // must provably not touch.
  std::vector<std::pair<sim::Time, sim::Time>> blockers;
  blockers.reserve(line.committed.size() + line.queue.size());
  for (const CommittedWindow& window : line.committed) {
    if (window.end > base && window.end > window.start) {
      blockers.emplace_back(window.start, window.end);
    }
  }
  // The no-delay fence: the backfilled window must end before any other
  // queued entry could feasibly start, so no pending grant can move later
  // because of it. Held claims block like windows instead (they have a
  // granted start of their own).
  sim::Time fence = sim::kTimeInfinity;
  for (const ReservationEntry& other : line.queue) {
    if (other.id == request.id) {
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

  // First-fit: slide the candidate start past every blocker it overlaps.
  sim::Time start = base;
  for (const auto& [blocker_start, blocker_end] : blockers) {
    if (sim::time_ge(blocker_start, start + request.duration)) {
      break;  // the hole before this blocker fits
    }
    if (blocker_end > start) {
      start = std::max(start, blocker_end);
    }
  }
  const bool fits_fence = sim::time_le(start + request.duration, fence);
  const bool beats_policy =
      start < policy_grant && !sim::time_eq(start, policy_grant);
  if (fits_fence && beats_policy) {
    return start;
  }
  return std::nullopt;
}

std::size_t ResourceLedger::queued_count() const {
  std::size_t count = 0;
  for (const Timeline& line : timelines_) {
    count += line.queue.size();
  }
  return count;
}

}  // namespace aheft::core
