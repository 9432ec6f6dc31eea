#include "sim/sharded_simulator.h"

#include <algorithm>
#include <utility>

#include "support/assert.h"

namespace aheft::sim {

namespace {

// Thread-local shard binding. File-scope so every ShardedSimulator shares
// the same slot: a thread is bound to at most one (simulator, shard) pair
// at a time, and nested bindings (solo-baseline sessions spawned from a
// stream worker) save and restore the outer pair.
thread_local ShardedSimulator* tls_owner = nullptr;
thread_local std::size_t tls_shard = 0;

}  // namespace

ShardedSimulator::ShardedSimulator(std::size_t shards) {
  AHEFT_REQUIRE(shards >= 1, "need at least one shard");
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Simulator>());
  }
}

ShardedSimulator::~ShardedSimulator() = default;

Simulator& ShardedSimulator::shard(std::size_t s) {
  return const_cast<Simulator&>(std::as_const(*this).shard(s));
}

const Simulator& ShardedSimulator::shard(std::size_t s) const {
  AHEFT_REQUIRE(s < shards_.size(), "shard index out of range");
  AHEFT_REQUIRE(!running_ || tls_owner != this || tls_shard == s,
                "an event reached another shard during run(); shards "
                "exchange nothing while running");
  return *shards_[s];
}

std::size_t ShardedSimulator::current_shard() const {
  return tls_owner == this ? tls_shard : 0;
}

void ShardedSimulator::drain(std::size_t s, Time target) {
  ShardBinding bind(*this, s);
  shards_[s]->run_until(target);
}

Time ShardedSimulator::run(ThreadPool* pool) {
  AHEFT_REQUIRE(!running_, "run() is not reentrant");
  running_ = true;
  while (true) {
    // The epoch target: the second-smallest next-event time, counting a
    // tie at the front as two shards sharing the frontier. When only one
    // shard has events the target is infinite and that shard drains to
    // completion; run_until() never advances a clock to an infinite
    // target.
    Time first = kTimeInfinity;
    Time second = kTimeInfinity;
    for (const auto& shard : shards_) {
      const Time t = shard->next_event_time();
      if (t < first) {
        second = first;
        first = t;
      } else if (t < second) {
        second = t;
      }
    }
    if (first >= kTimeInfinity) {
      break;
    }
    ++epochs_;
    // The barrier: parallel_for returns only after every shard has
    // drained [.., second]. Chunk size 1 so each shard gets its own
    // pool task; a null pool drains the shards inline, in order.
    parallel_for(
        pool, shards_.size(),
        [this, second](std::size_t s) { drain(s, second); },
        /*chunk_size=*/1);
    if (barrier_hook_) {
      // Every drain worker is parked: the hook owns all shard state.
      barrier_hook_();
    }
  }
  running_ = false;
  Time end = kTimeZero;
  for (const auto& shard : shards_) {
    end = std::max(end, shard->now());
  }
  return end;
}

std::uint64_t ShardedSimulator::executed_events() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->executed_events();
  }
  return total;
}

ShardedSimulator::ShardBinding::ShardBinding(ShardedSimulator& owner,
                                             std::size_t s)
    : prev_owner_(tls_owner), prev_shard_(tls_shard) {
  AHEFT_REQUIRE(s < owner.shards_.size(), "shard binding out of range");
  tls_owner = &owner;
  tls_shard = s;
}

ShardedSimulator::ShardBinding::~ShardBinding() {
  tls_owner = prev_owner_;
  tls_shard = prev_shard_;
}

}  // namespace aheft::sim
