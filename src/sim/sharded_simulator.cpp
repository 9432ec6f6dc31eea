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

ShardedSimulator::ShardedSimulator(std::size_t shards, Time epoch_width)
    : ShardedSimulator(shards, EpochConfig{epoch_width, false, kTimeInfinity}) {
}

ShardedSimulator::ShardedSimulator(std::size_t shards,
                                   const EpochConfig& epoch)
    : epoch_(epoch) {
  AHEFT_REQUIRE(shards >= 1, "need at least one shard");
  AHEFT_REQUIRE(epoch.width >= 0.0 && epoch.width < kTimeInfinity,
                "epoch width must be finite and non-negative");
  AHEFT_REQUIRE(epoch.max_width >= 0.0,
                "epoch max width must be non-negative");
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ShardedSimulator::~ShardedSimulator() = default;

Simulator& ShardedSimulator::shard(std::size_t s) {
  AHEFT_REQUIRE(s < shards_.size(), "shard index out of range");
  return shards_[s]->sim;
}

const Simulator& ShardedSimulator::shard(std::size_t s) const {
  AHEFT_REQUIRE(s < shards_.size(), "shard index out of range");
  return shards_[s]->sim;
}

std::size_t ShardedSimulator::current_shard() const {
  return tls_owner == this ? tls_shard : 0;
}

void ShardedSimulator::post(std::size_t target, Time when,
                            EventQueue::Action action) {
  AHEFT_REQUIRE(target < shards_.size(), "post target out of range");
  if (!running_) {
    // Setup phase: every shard's queue is freely addressable.
    shards_[target]->sim.schedule_at(when, std::move(action));
    return;
  }
  AHEFT_REQUIRE(tls_owner == this,
                "post() during run() from a thread not bound to a shard");
  if (target == tls_shard) {
    // Same-shard: the shard owns its queue, schedule directly. The clock
    // may already have passed `when` within this epoch; clamp forward.
    Simulator& sim = shards_[target]->sim;
    sim.schedule_at(std::max(when, sim.now()), std::move(action));
    return;
  }
  Shard& origin = *shards_[tls_shard];
  origin.outbox.push_back(
      Staged{when, target, origin.posted++, std::move(action), tls_shard});
}

Time ShardedSimulator::min_next_event_time() const {
  Time earliest = kTimeInfinity;
  for (const auto& shard : shards_) {
    earliest = std::min(earliest, shard->sim.next_event_time());
  }
  return earliest;
}

Time ShardedSimulator::epoch_width_for(Time h1) const {
  if (!epoch_.adaptive) {
    return epoch_.width;
  }
  // Second-smallest next-event time, counting multiplicity: a tie at h1
  // means two shards share the frontier and the lookahead collapses to 0.
  Time first = kTimeInfinity;
  Time second = kTimeInfinity;
  for (const auto& shard : shards_) {
    const Time t = shard->sim.next_event_time();
    if (t < first) {
      second = first;
      first = t;
    } else if (t < second) {
      second = t;
    }
  }
  // Everything in [h1, second) belongs to the single frontier shard, so
  // draining to second cannot change what any other shard observes. With
  // one active shard (second == infinity) take the full max_width.
  const Time lookahead = second >= kTimeInfinity
                             ? epoch_.max_width
                             : std::min(second - h1, epoch_.max_width);
  return std::max(epoch_.width, lookahead);
}

void ShardedSimulator::apply_staged() {
  std::vector<Staged> merged;
  for (auto& shard : shards_) {
    staging_high_water_ = std::max(staging_high_water_, shard->outbox.size());
    merged.insert(merged.end(),
                  std::make_move_iterator(shard->outbox.begin()),
                  std::make_move_iterator(shard->outbox.end()));
    shard->outbox.clear();
  }
  if (merged.empty()) {
    return;
  }
  staged_total_ += merged.size();
  // (time, origin, seq) is a strict total order over staged messages that
  // is independent of worker scheduling, so application order — and hence
  // the EventIds the targets assign — is identical run to run.
  std::sort(merged.begin(), merged.end(),
            [](const Staged& a, const Staged& b) {
              if (a.when != b.when) {
                return a.when < b.when;
              }
              if (a.origin != b.origin) {
                return a.origin < b.origin;
              }
              return a.seq < b.seq;
            });
  for (auto& msg : merged) {
    Simulator& sim = shards_[msg.target]->sim;
    // Conservative delivery: the target already drained this epoch, so a
    // message timestamped inside it lands at the target's clock instead.
    sim.schedule_at(std::max(msg.when, sim.now()), std::move(msg.action));
  }
}

void ShardedSimulator::drain(std::size_t s, Time horizon) {
  ShardBinding bind(*this, s);
  shards_[s]->sim.run_until(horizon);
}

Time ShardedSimulator::run(ThreadPool* pool) {
  AHEFT_REQUIRE(!running_, "run() is not reentrant");
  if (shards_.size() == 1) {
    // Compat fence: one shard is exactly the historical serial loop —
    // same pops, same clock, no horizon arithmetic in the path.
    ShardBinding bind(*this, 0);
    running_ = true;
    const Time end = shards_[0]->sim.run();
    running_ = false;
    return end;
  }
  running_ = true;
  const std::size_t n = shards_.size();
  while (true) {
    apply_staged();
    const Time horizon = min_next_event_time();
    if (horizon >= kTimeInfinity) {
      break;
    }
    ++epochs_;
    // The epoch target: horizon plus the (possibly adaptive) width. An
    // infinite adaptive lookahead drains the lone active shard to empty;
    // run_until() never advances a clock to an infinite horizon.
    const Time width = epoch_width_for(horizon);
    const Time target =
        width >= kTimeInfinity ? kTimeInfinity : horizon + width;
    // The barrier: parallel_for returns only after every shard has
    // drained [.., target]. Chunk size 1 so each shard gets its own
    // pool task; a null pool drains the shards inline, in order.
    parallel_for(
        pool, n, [this, target](std::size_t s) { drain(s, target); },
        /*chunk_size=*/1);
    if (barrier_hook_) {
      // Every drain worker is parked: the hook owns all shard state.
      barrier_hook_();
    }
  }
  running_ = false;
  Time end = kTimeZero;
  for (const auto& shard : shards_) {
    end = std::max(end, shard->sim.now());
  }
  return end;
}

std::uint64_t ShardedSimulator::executed_events() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->sim.executed_events();
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
