// SimulationSession: the shared home of one simulated experiment.
//
// Historically each strategy entry point built its own simulator, wired
// its own subset of the environment (only two accepted a LoadProfile,
// only AHEFT accepted a history repository), and ran one DAG to
// completion. The session inverts that: it owns the simulator clock and
// the full environment — resource pool, load profile, trace recorder,
// performance-history repository — and every strategy driver plugs into
// it, so all strategies get identical plumbing by construction.
//
// The session also arbitrates cross-workflow resource contention, and
// every piece of that arbitration reads and writes one structure: the
// session-owned core::ResourceLedger, a per-resource timeline of
// reservations (pending → held → committed/withdrawn). acquire / peek /
// commit / withdraw_all are thin views over the ledger; the session's
// ContentionPolicy orders the ledger's queues (FCFS — the default,
// identical to the historical first-pump-wins behavior — strict
// priorities, or weighted fair share); per-resource ledger wakeups wake
// exactly the workflows queued on a machine when its picture moves; and
// an optional backfill pass (SessionEnvironment::backfill) grants a
// later-queued ready job a hole in a timeline when it provably cannot
// delay any earlier reservation. The session keeps per-participant wait
// statistics so starvation is measurable. A single-workflow session has
// exactly one participant and behaves identically under every policy.
//
// Sharding (SessionEnvironment::shards > 1): the session partitions the
// resource universe across N `sim::ShardedSimulator` shards and gives
// each shard a private copy of everything mutable — ledger, contention
// policy, participant table, and a masked resource pool in which foreign
// machines never arrive. Participants are pinned to the shard whose
// binding was active when they registered (bind_shard), and may only
// touch resources of that shard — enforced at acquire time — so the hot
// path takes no locks and a fixed shard count replays bit-identically.
// Shards exchange nothing during a run; their only shared state, the
// environment trace and history sinks, is merged at epoch barriers.
// Every accessor below (simulator(), pool(), ledger(), ...) resolves to
// the calling thread's bound shard; with one shard the session is
// exactly the historical serial session.
#ifndef AHEFT_CORE_SESSION_H_
#define AHEFT_CORE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/contention_policy.h"
#include "core/resource_ledger.h"
#include "grid/history.h"
#include "grid/load_profile.h"
#include "grid/resource_pool.h"
#include "resilience/checkpoint_model.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace aheft {
class ThreadPool;
}  // namespace aheft

namespace aheft::core {

/// How resources map to shards. Contiguous blocks keep machine clusters
/// (which benches and scenarios typically build in id order) on one
/// shard; hashing spreads adjacent ids across shards.
enum class ShardAssignment {
  kContiguousBlocks,
  kHashed,
};

/// Everything a strategy run observes about the simulated grid. The pool
/// is mandatory; the optional members default to "absent" (nominal costs,
/// no trace, no history). All pointers must outlive the session.
struct SessionEnvironment {
  const grid::ResourcePool* pool = nullptr;
  /// Time-varying effective cost scaling the executors realize; null
  /// means nominal costs. Shared read-only across shards (LoadProfile
  /// holds no caches).
  const grid::LoadProfile* load = nullptr;
  sim::TraceRecorder* trace = nullptr;
  grid::PerformanceHistoryRepository* history = nullptr;
  /// ContentionPolicyRegistry name of the machine-contention arbitration
  /// ("fcfs", "priority", "fair-share", or a custom registration); empty
  /// falls back to FCFS. Each session builds its own policy instance —
  /// policies carry per-session state such as fair-share usage.
  std::string contention_policy = "fcfs";
  /// Cross-workflow backfilling: when a policy defers a request, grant it
  /// a hole in the resource's ledger timeline instead if occupying the
  /// hole provably cannot delay any other reservation. Off by default —
  /// backfilled grants change the FCFS event stream, and PR-over-PR
  /// bit-stability of the default configuration is a feature. Ignored
  /// under a load profile: backfill needs duration certainty to prove a
  /// hole fits, and load-stretched run times void that proof.
  bool backfill = false;
  /// Parallel shards for the event loop (clamped to the universe size so
  /// every shard owns at least one machine). 1 — the default — is the
  /// serial session, bit-identical to every prior PR. More than one
  /// composes with trace and history: each shard writes a private
  /// stamped sink (lock-free, drain-thread-only) that the session merges
  /// into the shared recorder/repository at every tick barrier in
  /// deterministic (time, origin shard, origin seq) order, so the merged
  /// sinks are byte-identical run to run at a fixed shard count — and
  /// byte-identical to the serial session at shards=1.
  std::size_t shards = 1;
  ShardAssignment shard_assignment = ShardAssignment::kContiguousBlocks;
  /// Workers the epoch barriers fan out on; null drains shards inline on
  /// the calling thread (deterministic either way). Must outlive run().
  ThreadPool* shard_workers = nullptr;
  /// Resilience: checkpoint/restart model, the departure action, and
  /// fair-share preemption (see resilience/checkpoint_model.h). Every
  /// config runs the same executor and session code; the default
  /// (kError, no checkpoints, no preemption) never revokes a job.
  resilience::ResilienceConfig resilience;
};

/// One workflow execution sharing the session's machines. All of a
/// participant's machine state lives in the session's ResourceLedger
/// (routed through acquire/commit). That includes how long its own
/// committed work keeps each machine busy: acquire and peek read it from
/// the ledger, so a participant keeps no copy. The interface is only the
/// callbacks the session pushes back: wakeups, the fair-share scale and
/// revocation.
class SessionParticipant {
 public:
  virtual ~SessionParticipant() = default;

  /// The ledger's picture of `resource` moved in a way that may allow an
  /// earlier grant (a competing entry committed, was withdrawn, or was
  /// truncated): re-evaluate pending work. Delivered in a fresh simulator
  /// event, never re-entrantly, and only to participants queued on the
  /// resource. Default is a no-op.
  virtual void contention_changed(grid::ResourceId resource);

  /// Completion time of the participant's release-time plan on the
  /// session clock — the scale of the workflow absent competition. The
  /// fair-share policy normalizes each workflow's delay by this scale
  /// (stretch fairness), so short workflows are not crushed by waits that
  /// barely register for long ones. kTimeZero means unknown (default);
  /// such a workflow never displaces competitors.
  [[nodiscard]] virtual sim::Time planned_finish() const;

  /// The session revokes the participant's *committed, running* work
  /// `tag` on `resource` (fair-share preemption chose it as the victim).
  /// An implementation checkpoints-or-kills the job, truncates its
  /// ledger window, and requeues the remainder through the normal
  /// acquire/commit lifecycle. Returns whether the work was actually
  /// revoked; the default declines (the participant cannot restart).
  /// Delivered in a fresh simulator event, never re-entrantly.
  virtual bool revoke_committed(grid::ResourceId resource, std::uint64_t tag);

 private:
  friend class SimulationSession;
  /// Dense slot in the participant table of the session shard that last
  /// registered this participant. A participant belongs to one session
  /// shard at a time: registering it elsewhere moves the slot, and the
  /// earlier registration stops resolving.
  std::size_t session_slot_ = static_cast<std::size_t>(-1);
};

/// Cross-workflow wait bookkeeping of one participant: how long its
/// committed acquisitions were delayed beyond their first-feasible start.
struct ContentionStats {
  double total_wait = 0.0;
  double max_wait = 0.0;
  std::size_t grants = 0;
};

class SimulationSession {
 public:
  explicit SimulationSession(const SessionEnvironment& env);
  ~SimulationSession();

  SimulationSession(const SimulationSession&) = delete;
  SimulationSession& operator=(const SimulationSession&) = delete;

  /// The event loop of the calling thread's shard (shard 0 when the
  /// thread is unbound, which is every serial caller).
  [[nodiscard]] sim::Simulator& simulator() noexcept {
    return sharded_.current();
  }
  /// The machines the calling thread's shard may use. Serial sessions
  /// see the environment pool itself; sharded sessions see a masked copy
  /// (same universe, same ids, foreign machines never arrive) so every
  /// planner and engine naturally stays inside its partition.
  [[nodiscard]] const grid::ResourcePool& pool() const noexcept;
  [[nodiscard]] const grid::LoadProfile* load() const noexcept {
    return env_.load;
  }
  /// The calling shard's trace sink. Serial sessions hand out the
  /// environment recorder itself; sharded sessions hand out the shard's
  /// private stamped sink, merged into the environment recorder at tick
  /// barriers. Engines capture this on their home shard, so per-shard
  /// resolution is transparent to every call site.
  [[nodiscard]] sim::TraceRecorder* trace() const noexcept;
  /// The calling shard's history repository (the shard's private delta in
  /// a sharded session; reads fall through to the environment repository,
  /// writes merge at barriers). Same capture discipline as trace().
  [[nodiscard]] grid::PerformanceHistoryRepository* history() const noexcept;
  [[nodiscard]] const SessionEnvironment& environment() const noexcept {
    return env_;
  }
  /// The calling shard's arbitration policy instance.
  [[nodiscard]] const ContentionPolicy& policy() const noexcept;
  /// The calling shard's reservation ledger (read-only; mutate it through
  /// acquire/commit/withdraw so policy hooks and wakeups stay coherent).
  [[nodiscard]] const ResourceLedger& ledger() const noexcept;
  /// Whether just-in-time dispatch should reserve→commit in two phases
  /// under the active policy (see ContentionPolicy::two_phase_dynamic).
  [[nodiscard]] bool two_phase_dynamic() const;

  // ---- Sharding ----

  /// Effective shard count (environment request clamped to the universe).
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return sharded_.shard_count();
  }
  /// The shard owning `resource` under the environment's assignment.
  [[nodiscard]] std::size_t shard_of(grid::ResourceId resource) const;
  /// Binds the calling thread to shard `s` until the returned guard
  /// dies. Setup code uses this to construct participants on their home
  /// shard, or to schedule on that shard through simulator(); during
  /// run() the epoch drains bind each worker themselves.
  [[nodiscard]] sim::ShardedSimulator::ShardBinding bind_shard(
      std::size_t s) {
    return sim::ShardedSimulator::ShardBinding(sharded_, s);
  }
  /// The sharded kernel, for run statistics (epochs).
  [[nodiscard]] const sim::ShardedSimulator& sharded() const noexcept {
    return sharded_;
  }
  /// Events executed across every shard.
  [[nodiscard]] std::uint64_t executed_events() const noexcept {
    return sharded_.executed_events();
  }

  /// Registers an executing workflow for contention arbitration with its
  /// priority / fair-share weight (must be positive). The participant
  /// joins the calling thread's shard and must only ever acquire that
  /// shard's resources. It must stay alive for as long as the simulator
  /// runs; registering the same participant twice on one shard is a
  /// no-op (the first priority wins). Registration stores the
  /// participant's dense slot on the participant itself, so every call
  /// below resolves `self` in O(1).
  void add_participant(SessionParticipant* participant,
                       double priority = 1.0);

  /// Registers (or refreshes) a pending ledger entry for `self`'s work
  /// `tag` on `resource` and returns the start time the contention policy
  /// grants: `ready` is the earliest start feasible for the participant
  /// itself (inputs, machine arrival), which the session raises to the
  /// end of the participant's own committed work on `resource`
  /// (ResourceLedger::committed_until_of); `duration` is the projected
  /// run length, and `tag` identifies the work behind the request
  /// (engines pass the job id) so a request withdrawn by a reschedule and
  /// re-registered for the same work keeps its wait baseline. A grant at
  /// or before `ready` means "start now"; a later grant tells the caller
  /// when to retry — the entry stays queued so competing grants see it.
  [[nodiscard]] sim::Time acquire(const SessionParticipant* self,
                                  grid::ResourceId resource, sim::Time ready,
                                  double duration, std::uint64_t tag = 0);

  /// What acquire would currently grant, without registering an entry or
  /// touching any state; `ready` is raised to the caller's committed
  /// horizon the same way. Decision heuristics use this to price
  /// candidate placements under the active policy.
  [[nodiscard]] sim::Time peek(const SessionParticipant* self,
                               grid::ResourceId resource, sim::Time ready,
                               double duration) const;

  /// Two-phase dispatch: `self` accepts the grant for work `tag` but will
  /// occupy the machine later — the ledger entry turns held, staying
  /// visible (and displaceable) until the commit.
  void hold(const SessionParticipant* self, grid::ResourceId resource,
            std::uint64_t tag, sim::Time granted_start);

  /// `self` started running work `tag` on `resource` over [start, end):
  /// commits the ledger entry, feeds the policy's usage accounting, and
  /// records the wait metrics (start minus the entry's first-feasible
  /// time).
  void commit(const SessionParticipant* self, grid::ResourceId resource,
              std::uint64_t tag, sim::Time start, sim::Time end);

  /// Drops every queued entry of `self` (a reschedule invalidated its
  /// queue heads); the entries re-register on the next acquire with
  /// their wait baselines preserved.
  void withdraw_all(const SessionParticipant* self);

  /// Drops the single queued entry of `self` for work `tag` on
  /// `resource` (a held two-phase placement is being abandoned); the
  /// wait baseline is preserved for a re-registration.
  void withdraw(const SessionParticipant* self, grid::ResourceId resource,
                std::uint64_t tag);

  /// A reschedule or a revocation cancelled `self`'s running work `tag`:
  /// truncates its committed reservation on `resource` to end at `at`,
  /// releasing the rest of the window to competitors. Revocations pass
  /// `carry_baseline` so the requeued work's re-registration resumes its
  /// wait clock (see ResourceLedger::truncate_commit); the historical
  /// reschedule path keeps the default.
  void truncate_commit(const SessionParticipant* self,
                       grid::ResourceId resource, std::uint64_t tag,
                       sim::Time at, bool carry_baseline = false);

  /// Whether `self`'s work `tag` may absorb another revocation under the
  /// per-job cap (resilience::kMaxRevocationsPerJob).
  [[nodiscard]] bool may_revoke(const SessionParticipant* self,
                                std::uint64_t tag) const;
  /// Records a landed revocation of `self`'s work `tag` (departure hits
  /// and requeues count against the same cap as policy preemptions).
  void record_revocation(const SessionParticipant* self, std::uint64_t tag);
  /// The environment's resilience config (validated at construction).
  [[nodiscard]] const resilience::ResilienceConfig& resilience()
      const noexcept {
    return env_.resilience;
  }

  /// Planner-side availability snapshot at the current session clock:
  /// the ledger's foreign busy picture from `self`'s point of view
  /// (committed windows and held claims of every other participant; see
  /// ResourceLedger::snapshot_view). Contention-aware planning passes
  /// take one fresh view per (re)planning pass — the view is a value and
  /// never tracks later ledger motion.
  [[nodiscard]] AvailabilityView availability_view(
      const SessionParticipant* self) const;

  /// Wait bookkeeping accumulated for `participant`'s committed grants;
  /// zeros for an unregistered participant. Resolves on the calling
  /// thread's shard during the run; after run() (no binding) it finds
  /// the participant on whichever shard it registered with.
  [[nodiscard]] ContentionStats contention_stats(
      const SessionParticipant* participant) const;

  /// Drains the event set in lock-step epochs on the environment's
  /// shard_workers (one epoch to completion for one shard); returns the
  /// final clock.
  sim::Time run() { return sharded_.run(env_.shard_workers); }

 private:
  struct ParticipantRecord {
    SessionParticipant* participant = nullptr;
    double priority = 1.0;
    /// First acquisition's ready time (~ the workflow's release); the
    /// base of fair-share rate normalization. Negative until then.
    sim::Time active_since = -1.0;
    ContentionStats stats;
  };

  /// Everything mutable a shard owns. One per shard, touched only by
  /// the thread currently bound to that shard — no locks anywhere.
  struct ShardState {
    ResourceLedger ledger;
    std::unique_ptr<ContentionPolicy> policy;
    std::vector<ParticipantRecord> participants;
    /// Masked copy of the environment pool: same universe and ids, but
    /// machines of other shards never arrive (arrival = departure = ∞),
    /// so planners cannot see — let alone choose — foreign machines.
    /// Unused (empty) in the single-shard session.
    grid::ResourcePool masked_pool;
    /// Revocations each (participant slot, tag) absorbed, against the
    /// per-job cap: a job endlessly bounced between failing machines
    /// eventually fails its workflow instead of livelocking.
    std::map<std::pair<std::size_t, std::uint64_t>, std::size_t> revocations;
    /// Resources with a preemption in flight, latched until the eviction
    /// event runs: the starved requester re-acquires every wakeup, and
    /// without the latch each retry would schedule another eviction
    /// before the first lands.
    std::set<grid::ResourceId> preempting;
    /// Shard-private stamped sinks, built only in sharded sessions whose
    /// environment carries the matching shared sink. Written exclusively
    /// by the shard's drain thread; drained by merge_shard_sinks() on the
    /// coordinator at every tick barrier.
    std::unique_ptr<sim::StampedTraceSink> trace_sink;
    std::unique_ptr<grid::HistoryDelta> history_delta;
  };

  /// The calling thread's shard state.
  [[nodiscard]] ShardState& state() noexcept {
    return *states_[sharded_.current_shard()];
  }
  [[nodiscard]] const ShardState& state() const noexcept {
    return *states_[sharded_.current_shard()];
  }
  /// state() plus the confinement fence: with more than one shard,
  /// `resource` must belong to the calling thread's shard.
  [[nodiscard]] ShardState& state_for(grid::ResourceId resource);
  [[nodiscard]] const ShardState& state_for(grid::ResourceId resource) const;

  /// Registration index of `participant` on the calling shard: the slot
  /// stored at registration, verified against the shard's table in O(1).
  /// Throws std::invalid_argument when unregistered or registered with
  /// another session or shard.
  [[nodiscard]] std::size_t index_of(
      const SessionParticipant* participant) const;
  /// `participant`'s record on `shard`, or null when it is not registered
  /// there.
  [[nodiscard]] static const ParticipantRecord* record_on(
      const ShardState& shard, const SessionParticipant* participant);

  [[nodiscard]] sim::Time grant_for(const ShardState& state,
                                    const ReservationEntry& entry,
                                    const std::vector<ReservationEntry>&
                                        queue) const;

  /// Wakes every queued owner on `resource` except `self` in fresh
  /// simulator events (skipped when the policy's grants cannot move
  /// earlier on commits/withdrawals and backfilling is off).
  void notify_queued(ShardState& state, grid::ResourceId resource,
                     const SessionParticipant* self);

  /// Fair-share preemption check after a deferred acquire: when the
  /// requester's stretch clears the resilience deadband against the
  /// owner of the committed window blocking it, schedules a revocation
  /// of that window in a fresh event. No-op unless the environment
  /// enabled preemption and the shard policy supports it.
  void maybe_preempt(ShardState& shard, const ReservationEntry& entry,
                     sim::Time grant);

  [[nodiscard]] bool wakeups_enabled(const ShardState& state) const {
    return state.policy->needs_change_notifications() || backfill_;
  }

  /// Barrier merge: drains every shard's stamped trace/history sink and
  /// replays the records into the environment sinks in (stamp, origin
  /// shard, origin seq) order. Runs on the coordinator thread with every
  /// drain worker parked.
  void merge_shard_sinks();

  SessionEnvironment env_;
  sim::ShardedSimulator sharded_;
  /// Per-shard mutable state; unique_ptr for address stability across
  /// the container (shard threads hold references concurrently).
  std::vector<std::unique_ptr<ShardState>> states_;
  bool backfill_ = false;
};

}  // namespace aheft::core

#endif  // AHEFT_CORE_SESSION_H_
