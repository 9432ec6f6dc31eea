// Sharded discrete-event kernel: N per-shard event loops ticked in
// lock-step epochs on a thread pool, with deterministic tick barriers.
//
// Each shard owns a private `Simulator` (clock + event queue), and shards
// exchange nothing during a run: an event may only reach its own shard's
// queue (shard() enforces it). The only state shards share — the
// session's trace and history sinks — is merged at the barriers.
//
// One epoch rule: every epoch drains all shards to one common target, the
// second-smallest next-event time across shards (ties counted), or to
// completion when only one shard has events. Everything strictly before
// the target belongs to the single frontier shard, and since no shard can
// reach another, draining that far changes nothing another shard
// observes. With one shard the first epoch drains the lone loop to
// completion — exactly the serial `Simulator::run()`.
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

class ShardedSimulator {
 public:
  /// Creates `shards` independent event loops (must be >= 1).
  explicit ShardedSimulator(std::size_t shards);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// The shard's private event loop. Outside run() any shard may be
  /// touched; during run() a thread bound to a shard may only reach that
  /// shard (unbound threads — the coordinator, nested solo sessions —
  /// are not checked).
  [[nodiscard]] Simulator& shard(std::size_t s);
  [[nodiscard]] const Simulator& shard(std::size_t s) const;

  /// Index of the shard bound to the calling thread (via ShardBinding,
  /// which the epoch drains install); shard 0 when unbound — so serial
  /// callers and single-shard sessions never need a binding.
  [[nodiscard]] std::size_t current_shard() const;

  /// The calling thread's shard, shard(current_shard()).
  [[nodiscard]] Simulator& current() { return *shards_[current_shard()]; }

  /// Runs epochs until every shard is idle. Returns the maximum final
  /// clock across shards. `pool` may be null (epochs drain inline;
  /// still deterministic, useful for tests).
  Time run(ThreadPool* pool);

  /// Installs a hook called on the coordinator thread after each epoch's
  /// parallel drain returns (every worker parked) — the race-free window
  /// the session uses to merge per-shard trace/history sinks.
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
  // Always 0: shards exchange no messages. Kept only for the benchmark's
  // per-layer schema.
  [[nodiscard]] std::uint64_t staged_messages() const { return 0; }
  [[nodiscard]] std::size_t staging_high_water() const { return 0; }

 private:
  void drain(std::size_t s, Time target);

  // Simulator is immovable, so shards live behind unique_ptr.
  std::vector<std::unique_ptr<Simulator>> shards_;
  std::function<void()> barrier_hook_;
  bool running_ = false;
  std::uint64_t epochs_ = 0;
};

}  // namespace aheft::sim

#endif  // AHEFT_SIM_SHARDED_SIMULATOR_H_
