// RevocationManager: per-shard bookkeeping of policy-initiated revokes.
//
// Revocation lets the session take back a *committed* window — running
// work — where contention policies could previously only displace held
// claims. Two paths issue revokes: the departure path (a job that cannot
// finish before its machine leaves is checkpointed-or-killed at the wall
// and requeued) and fair-share preemption (a starved requester evicts
// the job of a monopolizing workflow). Both funnel through the victim
// participant's revoke_committed() so the victim itself truncates its
// ledger window and requeues through the normal acquire/hold/commit
// lifecycle — arbitration stays acyclic because the requeued work is
// just another queue entry the policy orders.
//
// The manager guards the loops revocation could otherwise open: a
// per-job revocation cap (a job endlessly bounced between failing
// machines eventually fails its workflow instead of livelocking) and a
// one-preemption-in-flight-per-resource latch (the starved requester
// re-acquires every wakeup; without the latch each retry would schedule
// another eviction before the first lands).
#ifndef AHEFT_RESILIENCE_REVOCATION_H_
#define AHEFT_RESILIENCE_REVOCATION_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "grid/resource.h"
#include "resilience/checkpoint_model.h"

namespace aheft::resilience {

class RevocationManager {
 public:
  explicit RevocationManager(const ResilienceConfig& config)
      : config_(config) {
    validate(config_);
  }

  [[nodiscard]] const ResilienceConfig& config() const { return config_; }

  /// Whether (participant, tag) may absorb another revocation under the
  /// per-job cap.
  [[nodiscard]] bool may_revoke(std::size_t participant,
                                std::uint64_t tag) const {
    const auto it = counts_.find({participant, tag});
    return it == counts_.end() ||
           it->second < kMaxRevocationsPerJob;
  }

  /// Records a landed revocation of (participant, tag).
  void record(std::size_t participant, std::uint64_t tag) {
    ++counts_[{participant, tag}];
  }

  /// Latches `resource` for one in-flight preemption; returns false when
  /// an eviction is already pending there.
  [[nodiscard]] bool begin_preemption(grid::ResourceId resource) {
    return preempting_.insert(resource).second;
  }

  /// Releases the latch once the eviction event ran (whether or not the
  /// victim honored it).
  void end_preemption(grid::ResourceId resource) {
    preempting_.erase(resource);
  }

 private:
  ResilienceConfig config_;
  std::map<std::pair<std::size_t, std::uint64_t>, std::size_t> counts_;
  std::set<grid::ResourceId> preempting_;
};

}  // namespace aheft::resilience

#endif  // AHEFT_RESILIENCE_REVOCATION_H_
