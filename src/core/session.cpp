#include "core/session.h"

#include <algorithm>
#include <limits>

#include "support/assert.h"

namespace aheft::core {

namespace {

std::size_t effective_shards(const SessionEnvironment& env) {
  AHEFT_REQUIRE(env.pool != nullptr, "session environment needs a pool");
  AHEFT_REQUIRE(env.shards >= 1, "session needs at least one shard");
  // Clamp so every shard owns at least one machine; empty shards would
  // only add barrier work.
  return std::min(env.shards, std::max<std::size_t>(
                                  1, env.pool->universe_size()));
}

}  // namespace

SimulationSession::SimulationSession(const SessionEnvironment& env)
    : env_(env), sharded_(effective_shards(env)) {
  const std::size_t shards = sharded_.shard_count();
  // Backfill proves a hole fits from the request's nominal duration; a
  // load profile stretches realized run times past that proof, so the
  // combination is refused rather than silently overlapping.
  backfill_ = env.backfill && env.load == nullptr;
  resilience::validate(env.resilience);
  const std::string policy_name =
      env.contention_policy.empty() ? "fcfs" : env.contention_policy;
  states_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto state = std::make_unique<ShardState>();
    state->policy = ContentionPolicyRegistry::instance().create(policy_name);
    if (shards > 1) {
      for (const grid::Resource& resource : env.pool->all()) {
        grid::Resource copy = resource;
        if (shard_of(resource.id) != s) {
          // Foreign machine: never arrives on this shard, and an
          // infinite departure keeps it out of departs_in scans too.
          copy.arrival = sim::kTimeInfinity;
          copy.departure = sim::kTimeInfinity;
        }
        state->masked_pool.add(std::move(copy));
      }
      // Shard-private stamped sinks: written only by the shard's drain
      // thread, merged into the shared environment sinks at every tick
      // barrier by merge_shard_sinks().
      sim::Simulator* clock = &sharded_.shard(s);
      if (env.trace != nullptr) {
        state->trace_sink = std::make_unique<sim::StampedTraceSink>(
            [clock]() { return clock->now(); });
      }
      if (env.history != nullptr) {
        state->history_delta = std::make_unique<grid::HistoryDelta>(
            *env.history, [clock]() { return clock->now(); });
      }
    }
    states_.push_back(std::move(state));
  }
  if (shards > 1 && (env.trace != nullptr || env.history != nullptr)) {
    sharded_.set_barrier_hook([this]() { merge_shard_sinks(); });
  }
}

SimulationSession::~SimulationSession() = default;

void SessionParticipant::contention_changed(grid::ResourceId /*resource*/) {}

sim::Time SessionParticipant::planned_finish() const { return sim::kTimeZero; }

bool SessionParticipant::revoke_committed(grid::ResourceId /*resource*/,
                                          std::uint64_t /*tag*/) {
  return false;
}

const grid::ResourcePool& SimulationSession::pool() const noexcept {
  return sharded_.shard_count() == 1 ? *env_.pool : state().masked_pool;
}

sim::TraceRecorder* SimulationSession::trace() const noexcept {
  const ShardState& shard = state();
  return shard.trace_sink != nullptr ? shard.trace_sink.get() : env_.trace;
}

grid::PerformanceHistoryRepository* SimulationSession::history()
    const noexcept {
  const ShardState& shard = state();
  return shard.history_delta != nullptr ? shard.history_delta.get()
                                        : env_.history;
}

void SimulationSession::merge_shard_sinks() {
  // Each shard's pending run is already in (stamp, seq) order, and the
  // k-way merge breaks stamp ties by shard index: the merged sinks follow
  // (stamp, origin shard, seq), independent of worker scheduling, so they
  // replay byte-identically run to run.
  if (env_.trace != nullptr) {
    std::vector<std::vector<sim::StampedTraceRecord>> runs;
    runs.reserve(states_.size());
    for (const auto& shard : states_) {
      runs.push_back(shard->trace_sink->take_pending());
    }
    sim::merge_stamped_runs(runs,
                            [this](const sim::StampedTraceRecord& record) {
                              env_.trace->record(record.interval);
                            });
  }
  if (env_.history != nullptr) {
    std::vector<std::vector<grid::PendingObservation>> runs;
    runs.reserve(states_.size());
    for (const auto& shard : states_) {
      runs.push_back(shard->history_delta->take_pending());
    }
    sim::merge_stamped_runs(
        runs, [this](const grid::PendingObservation& observation) {
          env_.history->record(observation.operation, observation.resource,
                               observation.duration);
        });
  }
}

const ContentionPolicy& SimulationSession::policy() const noexcept {
  return *state().policy;
}

const ResourceLedger& SimulationSession::ledger() const noexcept {
  return state().ledger;
}

std::size_t SimulationSession::shard_of(grid::ResourceId resource) const {
  const std::size_t n = sharded_.shard_count();
  const std::size_t universe = env_.pool->universe_size();
  AHEFT_REQUIRE(resource < universe, "resource outside the universe");
  if (n == 1) {
    return 0;
  }
  if (env_.shard_assignment == ShardAssignment::kHashed) {
    return static_cast<std::size_t>(resource) % n;
  }
  // Contiguous blocks: resource r of a universe of U machines lands on
  // shard floor(r * n / U); block sizes differ by at most one.
  return static_cast<std::size_t>(resource) * n / universe;
}

SimulationSession::ShardState& SimulationSession::state_for(
    grid::ResourceId resource) {
  if (sharded_.shard_count() > 1) {
    AHEFT_REQUIRE(shard_of(resource) == sharded_.current_shard(),
                  "resource belongs to a different shard than the calling "
                  "participant's home shard");
  }
  return state();
}

const SimulationSession::ShardState& SimulationSession::state_for(
    grid::ResourceId resource) const {
  if (sharded_.shard_count() > 1) {
    AHEFT_REQUIRE(shard_of(resource) == sharded_.current_shard(),
                  "resource belongs to a different shard than the calling "
                  "participant's home shard");
  }
  return state();
}

void SimulationSession::add_participant(SessionParticipant* participant,
                                        double priority) {
  AHEFT_REQUIRE(participant != nullptr,
                "cannot register a null session participant");
  AHEFT_REQUIRE(priority > 0.0,
                "participant priority / weight must be positive");
  ShardState& shard = state();
  if (record_on(shard, participant) != nullptr) {
    return;
  }
  participant->session_slot_ = shard.participants.size();
  shard.participants.push_back(
      ParticipantRecord{participant, priority, -1.0, {}});
}

const SimulationSession::ParticipantRecord* SimulationSession::record_on(
    const ShardState& shard, const SessionParticipant* participant) {
  if (participant == nullptr ||
      participant->session_slot_ >= shard.participants.size()) {
    return nullptr;
  }
  const ParticipantRecord& record =
      shard.participants[participant->session_slot_];
  return record.participant == participant ? &record : nullptr;
}

std::size_t SimulationSession::index_of(
    const SessionParticipant* participant) const {
  if (record_on(state(), participant) == nullptr) {
    throw std::invalid_argument(
        "participant is not registered with this session shard");
  }
  return participant->session_slot_;
}

sim::Time SimulationSession::grant_for(
    const ShardState& state, const ReservationEntry& entry,
    const std::vector<ReservationEntry>& queue) const {
  ContentionQuery query;
  query.request = &entry;
  query.now = sharded_.shard(sharded_.current_shard()).now();
  query.others_busy =
      state.ledger.committed_until_excluding(entry.resource,
                                             entry.participant);
  query.queue = &queue;
  // Policies may only delay a request, never reach before its own
  // feasible start.
  sim::Time grant = std::max(entry.ready, state.policy->grant(query));
  if (backfill_) {
    if (const auto hole =
            state.ledger.backfill_start(entry, query.now, grant)) {
      grant = *hole;
    }
  }
  return grant;
}

sim::Time SimulationSession::acquire(const SessionParticipant* self,
                                     grid::ResourceId resource,
                                     sim::Time ready, double duration,
                                     std::uint64_t tag) {
  AHEFT_REQUIRE(duration >= 0.0, "acquisition duration must be >= 0");
  ShardState& shard = state_for(resource);
  const std::size_t index = index_of(self);
  // The machine is busy with the caller's own committed work until its
  // ledger horizon, whatever the caller passed.
  ready = std::max(ready, shard.ledger.committed_until_of(resource, index));
  ParticipantRecord& record = shard.participants[index];
  if (record.active_since < 0.0) {
    record.active_since = ready;
  }
  const double planned_span =
      std::max(0.0, self->planned_finish() - record.active_since);
  const ReservationEntry& entry =
      shard.ledger.upsert(index, resource, tag, ready, duration,
                          record.priority, record.active_since, planned_span);
  const sim::Time grant = grant_for(shard, entry, shard.ledger.queue(resource));
  maybe_preempt(shard, entry, grant);
  return grant;
}

bool SimulationSession::may_revoke(const SessionParticipant* self,
                                   std::uint64_t tag) const {
  const ShardState& shard = state();
  const auto it = shard.revocations.find({index_of(self), tag});
  return it == shard.revocations.end() ||
         it->second < resilience::kMaxRevocationsPerJob;
}

void SimulationSession::record_revocation(const SessionParticipant* self,
                                          std::uint64_t tag) {
  ++state().revocations[{index_of(self), tag}];
}

void SimulationSession::maybe_preempt(ShardState& shard,
                                      const ReservationEntry& entry,
                                      sim::Time grant) {
  if (!env_.resilience.preemption || !shard.policy->supports_preemption()) {
    return;
  }
  sim::Simulator& simulator = sharded_.current();
  const sim::Time now = simulator.now();
  const sim::Time feasible = std::max(entry.ready, now);
  if (sim::time_le(grant, feasible)) {
    return;  // not deferred: nothing to preempt for
  }
  const double self_stretch = shard.policy->preemption_stretch(entry, now);
  if (self_stretch <= resilience::kPreemptionMinStretch) {
    return;  // inside the deadband: starved, but not starved enough
  }
  // The victim: the committed window blocking the requester's feasible
  // start with the latest end — the reservation whose truncation moves
  // the grant the most.
  CommittedWindow victim;
  bool found = false;
  for (const CommittedWindow& window :
       shard.ledger.committed_windows(entry.resource)) {
    if (window.participant != entry.participant && window.end > feasible &&
        (!found || window.end > victim.end)) {
      victim = window;
      found = true;
    }
  }
  if (!found) {
    return;  // the delay comes from queued claims, not committed work
  }
  const ParticipantRecord& owner_record = shard.participants[victim.participant];
  ReservationEntry owner_probe;
  owner_probe.priority = owner_record.priority;
  owner_probe.active_since =
      owner_record.active_since < 0.0 ? now : owner_record.active_since;
  owner_probe.planned_span = std::max(
      0.0, owner_record.participant->planned_finish() -
               owner_probe.active_since);
  const double victim_stretch =
      shard.policy->preemption_stretch(owner_probe, now);
  if (self_stretch <= resilience::kPreemptionRatio * victim_stretch) {
    return;  // disparity inside the displacement band
  }
  SessionParticipant* owner = owner_record.participant;
  if (!may_revoke(owner, victim.tag) ||
      !shard.preempting.insert(entry.resource).second) {
    return;
  }
  // Evict in a fresh event: the victim truncates its window and requeues,
  // which must not run inside the requester's acquire.
  const grid::ResourceId resource = entry.resource;
  const std::uint64_t tag = victim.tag;
  simulator.schedule_at(now, [this, owner, resource, tag] {
    state().preempting.erase(resource);
    // A landed revocation is recorded by the victim's requeue path
    // (record_revocation), the same bookkeeping departure hits use.
    owner->revoke_committed(resource, tag);
  });
}

sim::Time SimulationSession::peek(const SessionParticipant* self,
                                  grid::ResourceId resource, sim::Time ready,
                                  double duration) const {
  const ShardState& shard = state_for(resource);
  const std::size_t index = index_of(self);
  ready = std::max(ready, shard.ledger.committed_until_of(resource, index));
  const ParticipantRecord& record = shard.participants[index];
  ReservationEntry probe;
  // A probe prices a hypothetical NEW registration: give it the newest
  // possible id so every held booking blocks it, exactly as it would
  // block the real acquire that follows.
  probe.id = std::numeric_limits<std::uint64_t>::max();
  probe.participant = index;
  probe.resource = resource;
  probe.ready = ready;
  probe.duration = duration;
  probe.priority = record.priority;
  probe.first_ready = ready;
  probe.active_since = record.active_since < 0.0 ? ready : record.active_since;
  probe.planned_span =
      std::max(0.0, self->planned_finish() - probe.active_since);
  return grant_for(shard, probe, shard.ledger.queue(resource));
}

void SimulationSession::hold(const SessionParticipant* self,
                             grid::ResourceId resource, std::uint64_t tag,
                             sim::Time granted_start) {
  ShardState& shard = state_for(resource);
  if (shard.ledger.hold(index_of(self), resource, tag, granted_start)) {
    // A claim that moved may leave another queued entry as the effective
    // head of the policy's service order: wake the queue so the machine
    // never idles waiting on a deferred claim's stale retry. Re-holds at
    // an unchanged start stay silent, which is what terminates the
    // same-instant re-arbitration cascade.
    notify_queued(shard, resource, self);
  }
}

void SimulationSession::commit(const SessionParticipant* self,
                               grid::ResourceId resource, std::uint64_t tag,
                               sim::Time start, sim::Time end) {
  ShardState& shard = state_for(resource);
  const std::size_t index = index_of(self);
  const ReservationEntry entry =
      shard.ledger.commit(index, resource, tag, start, end);
  const double wait = std::max(0.0, start - entry.first_ready);
  ContentionStats& stats = shard.participants[index].stats;
  stats.total_wait += wait;
  stats.max_wait = std::max(stats.max_wait, wait);
  ++stats.grants;
  shard.policy->on_commit(entry, start, end);
  notify_queued(shard, resource, self);
}

void SimulationSession::withdraw_all(const SessionParticipant* self) {
  ShardState& shard = state();
  const std::size_t index = index_of(self);
  for (const grid::ResourceId resource : shard.ledger.withdraw_all(index)) {
    notify_queued(shard, resource, self);
  }
}

void SimulationSession::withdraw(const SessionParticipant* self,
                                 grid::ResourceId resource,
                                 std::uint64_t tag) {
  ShardState& shard = state_for(resource);
  if (shard.ledger.withdraw(index_of(self), resource, tag)) {
    notify_queued(shard, resource, self);
  }
}

void SimulationSession::truncate_commit(const SessionParticipant* self,
                                        grid::ResourceId resource,
                                        std::uint64_t tag, sim::Time at,
                                        bool carry_baseline) {
  ShardState& shard = state_for(resource);
  shard.ledger.truncate_commit(index_of(self), resource, tag, at,
                               carry_baseline);
  notify_queued(shard, resource, self);
}

void SimulationSession::notify_queued(ShardState& state,
                                      grid::ResourceId resource,
                                      const SessionParticipant* self) {
  if (!wakeups_enabled(state)) {
    return;
  }
  // Wake each queued owner once, even when it holds several entries on
  // the resource (two-phase dynamic holds). Queued owners are this
  // shard's participants by the confinement fence, so the wakeup events
  // land on this shard's own queue.
  sim::Simulator& simulator = sharded_.current();
  std::vector<std::size_t> woken;
  for (const ReservationEntry& entry : state.ledger.queue(resource)) {
    SessionParticipant* waiter =
        state.participants[entry.participant].participant;
    if (waiter == self ||
        std::find(woken.begin(), woken.end(), entry.participant) !=
            woken.end()) {
      continue;
    }
    woken.push_back(entry.participant);
    // A fresh event: the notified participant may start jobs and commit,
    // which must not run inside the notifying participant's bookkeeping.
    simulator.schedule_at(simulator.now(), [waiter, resource] {
      waiter->contention_changed(resource);
    });
  }
}

AvailabilityView SimulationSession::availability_view(
    const SessionParticipant* self) const {
  return state().ledger.snapshot_view(index_of(self),
                                      sharded_.shard(sharded_.current_shard())
                                          .now());
}

ContentionStats SimulationSession::contention_stats(
    const SessionParticipant* participant) const {
  // During the run a participant always asks from its home shard; after
  // the run (no binding → shard 0) fall through to the other shards.
  if (const ParticipantRecord* record = record_on(state(), participant)) {
    return record->stats;
  }
  for (const auto& shard : states_) {
    if (const ParticipantRecord* record = record_on(*shard, participant)) {
      return record->stats;
    }
  }
  return {};
}

}  // namespace aheft::core
