// Sharded discrete-event kernel: N per-shard event loops ticked in
// lock-step epochs on a thread pool, with deterministic tick barriers.
//
// Each shard owns a private `Simulator` (clock + event queue). An epoch
// picks the global minimum next-event time across shards as the horizon,
// drains every shard up to that horizon in parallel, then applies
// cross-shard messages staged during the epoch at the barrier — sorted by
// (time, origin shard, origin sequence) so a fixed shard count replays
// bit-identically run to run, regardless of worker scheduling. With one
// shard the epoch machinery is bypassed entirely and `run()` is the
// historical serial loop, so shards=1 is bit-identical to the
// pre-sharding simulator (the compat fence).
#ifndef AHEFT_SIM_SHARDED_SIMULATOR_H_
#define AHEFT_SIM_SHARDED_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"
#include "support/thread_pool.h"

namespace aheft::sim {

/// Epoch-width policy for the lock-step barriers.
///
/// `width` is the fixed floor added to every horizon (the historical
/// `epoch_width` knob). With `adaptive` set, each epoch additionally looks
/// ahead to the second-smallest next-event time across shards: everything
/// strictly before it belongs to the single frontier shard, so draining
/// that far cannot reorder anything another shard would observe. The
/// lookahead is clamped to `max_width` (infinite by default); when only
/// one shard has pending events the lookahead is `max_width` outright.
/// The effective width of an epoch is max(width, clamped lookahead), so
/// adaptive never narrows a fixed width — and with `adaptive` false the
/// fixed-width and width=0 paths are exactly the historical ones.
struct EpochConfig {
  Time width = 0.0;
  bool adaptive = false;
  Time max_width = kTimeInfinity;
};

class ShardedSimulator {
 public:
  /// Creates `shards` independent event loops (must be >= 1). Events that
  /// land exactly on an epoch horizon run in the same epoch; a positive
  /// `epoch_width` widens each epoch to [h, h + width], trading barrier
  /// frequency for intra-epoch reordering *between* shards (never within
  /// one shard, so per-shard determinism is unaffected).
  explicit ShardedSimulator(std::size_t shards, Time epoch_width = 0.0);
  /// Full epoch-width policy, including the adaptive lookahead.
  ShardedSimulator(std::size_t shards, const EpochConfig& epoch);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// The shard's private event loop. Outside run() any shard may be
  /// touched; during run() only the shard bound to the calling thread.
  [[nodiscard]] Simulator& shard(std::size_t s);
  [[nodiscard]] const Simulator& shard(std::size_t s) const;

  /// Index of the shard bound to the calling thread (via ShardBinding,
  /// which the epoch drains install); shard 0 when unbound — so serial
  /// callers and single-shard sessions never need a binding.
  [[nodiscard]] std::size_t current_shard() const;

  /// Shorthand for shard(current_shard()).
  [[nodiscard]] Simulator& current() { return shard(current_shard()); }

  /// Schedules `action` on `target`'s loop at absolute time `when`.
  /// Same-shard (or not running) posts schedule directly. Cross-shard
  /// posts from inside run() are staged in the origin shard's bounded
  /// outbox and applied at the next tick barrier, at max(when, target
  /// clock) — the conservative rule: a message can never rewind a shard.
  void post(std::size_t target, Time when, EventQueue::Action action);

  /// Runs epochs until every shard is idle and no messages are staged.
  /// Returns the maximum final clock across shards. `pool` may be null
  /// (epochs drain inline; still deterministic, useful for tests).
  Time run(ThreadPool* pool);

  /// Installs a hook called on the coordinator thread after each epoch's
  /// parallel drain returns (every worker parked) and before the next
  /// epoch's staged messages are applied — the race-free window the
  /// session uses to merge per-shard trace/history sinks. Never called on
  /// the single-shard serial fast path (no barriers exist there).
  void set_barrier_hook(std::function<void()> hook) {
    barrier_hook_ = std::move(hook);
  }

  /// Binds the calling thread to shard `s` of this simulator for the
  /// lifetime of the object (RAII; restores the previous binding).
  /// The epoch drains install one per worker; sessions expose it so
  /// setup code can build shard-confined state before run().
  class ShardBinding {
   public:
    ShardBinding(ShardedSimulator& owner, std::size_t s);
    ~ShardBinding();
    ShardBinding(const ShardBinding&) = delete;
    ShardBinding& operator=(const ShardBinding&) = delete;

   private:
    ShardedSimulator* prev_owner_;
    std::size_t prev_shard_;
  };

  // Run statistics.
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  [[nodiscard]] std::uint64_t executed_events() const;
  [[nodiscard]] std::uint64_t staged_messages() const { return staged_total_; }
  /// Largest number of messages held in any one shard's outbox at a
  /// barrier — the bound the staging buffers actually needed.
  [[nodiscard]] std::size_t staging_high_water() const {
    return staging_high_water_;
  }

 private:
  /// A cross-shard message captured between barriers.
  struct Staged {
    Time when;
    std::size_t target;
    std::uint64_t seq;  // per-origin-shard sequence number
    EventQueue::Action action;
    std::size_t origin;
  };

  struct Shard {
    Simulator sim;
    // Staging outbox, written only by the shard's own drain thread
    // between barriers and consumed only at the barrier — no locks.
    std::vector<Staged> outbox;
    std::uint64_t posted = 0;
  };

  void drain(std::size_t s, Time horizon);
  /// Barrier step: merges every outbox in (time, origin, seq) order and
  /// schedules the messages on their target shards.
  void apply_staged();
  [[nodiscard]] Time min_next_event_time() const;
  /// Effective width for the epoch starting at horizon `h1`: the fixed
  /// floor, widened by the adaptive lookahead toward the second-smallest
  /// next-event time across shards (clamped to max_width).
  [[nodiscard]] Time epoch_width_for(Time h1) const;

  // Simulator is immovable, so shards live behind unique_ptr.
  std::vector<std::unique_ptr<Shard>> shards_;
  EpochConfig epoch_;
  std::function<void()> barrier_hook_;
  bool running_ = false;
  std::uint64_t epochs_ = 0;
  std::uint64_t staged_total_ = 0;
  std::size_t staging_high_water_ = 0;
};

}  // namespace aheft::sim

#endif  // AHEFT_SIM_SHARDED_SIMULATOR_H_
