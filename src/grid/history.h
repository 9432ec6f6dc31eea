// Performance History Repository (paper Fig. 1).
//
// Stores observed run times keyed by (operation, resource) and serves
// exponentially smoothed estimates. Scientific workflows repeat a handful
// of operations many times (§4.3), so per-operation history converges
// quickly. Entries are stored per resource: a table indexed by
// ResourceId whose rows hold that machine's operations sorted by name, so
// a record or lookup searches one machine's operations only.
//
// `HistoryDelta` is the sharded-core overlay: each shard records into a
// private delta (written only by the shard's drain thread), reads fall
// through to the shared base repository for keys the shard never touched,
// and the stamped pending observations are replayed into the base at tick
// barriers in deterministic (stamp, origin shard, origin seq) order. The
// overlay is the delta's own inherited table: draining it clears only
// the rows written since the last barrier, which keep their storage.
#ifndef AHEFT_GRID_HISTORY_H_
#define AHEFT_GRID_HISTORY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "grid/resource.h"

namespace aheft::grid {

class PerformanceHistoryRepository {
 public:
  /// `smoothing` is the weight of the newest observation (EWMA alpha).
  explicit PerformanceHistoryRepository(double smoothing = 0.5);
  PerformanceHistoryRepository(const PerformanceHistoryRepository&) = default;
  PerformanceHistoryRepository& operator=(const PerformanceHistoryRepository&) =
      default;
  PerformanceHistoryRepository(PerformanceHistoryRepository&&) = default;
  PerformanceHistoryRepository& operator=(PerformanceHistoryRepository&&) =
      default;
  virtual ~PerformanceHistoryRepository() = default;

  /// Records an actual run time for `operation` on `resource`.
  virtual void record(const std::string& operation, ResourceId resource,
                      double actual_duration);

  /// Smoothed estimate; empty when the pair was never observed.
  [[nodiscard]] virtual std::optional<double> estimate(
      const std::string& operation, ResourceId resource) const;

  /// Number of observations for the pair.
  [[nodiscard]] virtual std::size_t observations(const std::string& operation,
                                                 ResourceId resource) const;

  /// Observations absorbed by this repository object itself (for a
  /// `HistoryDelta`, delta-local records are not counted here).
  [[nodiscard]] std::size_t total_observations() const { return total_; }

  [[nodiscard]] double smoothing() const { return smoothing_; }

  /// One (operation, resource) key's state in a `snapshot()`.
  struct Observation {
    std::string operation;
    ResourceId resource = 0;
    double smoothed = 0.0;
    std::size_t count = 0;
  };

  /// Every key's smoothed estimate and count in (operation, resource)
  /// order, whatever the storage layout — a determinism-comparable
  /// fingerprint for twin-run checks. For a HistoryDelta: its overlay.
  [[nodiscard]] std::vector<Observation> snapshot() const;

  void clear();

 protected:
  struct Entry {
    double smoothed = 0.0;
    std::size_t count = 0;
  };
  /// The entry for the key, or null when the pair was never recorded.
  [[nodiscard]] const Entry* find(const std::string& operation,
                                  ResourceId resource) const;
  /// The entry for the key, created empty (count 0) on first use.
  Entry& entry_for(const std::string& operation, ResourceId resource);
  /// Whether no operation has an entry on `resource`.
  [[nodiscard]] bool row_empty(ResourceId resource) const;
  /// Drops every entry on `resource`, keeping the row's storage.
  void clear_row(ResourceId resource);

 private:
  struct Keyed {
    std::string operation;
    Entry entry;
  };
  double smoothing_;
  /// One row per ResourceId: the machine's operations sorted by name. A
  /// record pays a binary search over one machine's operations, and a
  /// row cleared at a barrier keeps its storage for the next epoch.
  std::vector<std::vector<Keyed>> rows_;
  std::size_t total_ = 0;
};

/// One delta-local observation awaiting the deterministic barrier merge.
struct PendingObservation {
  double stamp = 0.0;      ///< recording shard's clock at the record
  std::uint64_t seq = 0;   ///< append order within the owning delta
  std::string operation;
  ResourceId resource = 0;
  double duration = 0.0;
};

/// Shard-private history overlay. `record()` continues the base EWMA
/// locally: the first delta-local record for a key seeds the overlay from
/// the base repository's entry, so estimates served to the shard between
/// barriers are exactly what the base will hold once the pending
/// observations are replayed into it. Under the session's resource-shard
/// confinement, (operation, resource) keys are disjoint across shards, so
/// overlay reads never see another shard's unreplayed writes.
class HistoryDelta final : public PerformanceHistoryRepository {
 public:
  /// `clock` reads the owning shard's simulation clock; it is called on the
  /// shard's drain thread at every record. `base` must outlive the delta
  /// and is only read between barriers (the coordinator mutates it while
  /// the drain workers are parked).
  HistoryDelta(const PerformanceHistoryRepository& base,
               std::function<double()> clock);

  void record(const std::string& operation, ResourceId resource,
              double actual_duration) override;
  [[nodiscard]] std::optional<double> estimate(
      const std::string& operation, ResourceId resource) const override;
  [[nodiscard]] std::size_t observations(const std::string& operation,
                                         ResourceId resource) const override;

  /// Drains the observations accumulated since the last call, in append
  /// order (nondecreasing stamp, strictly increasing seq), and resets the
  /// overlay so post-merge reads fall through to the updated base.
  [[nodiscard]] std::vector<PendingObservation> take_pending();

 private:
  const PerformanceHistoryRepository* base_;
  std::function<double()> clock_;
  std::uint64_t seq_ = 0;
  /// Resources whose overlay rows hold entries since the last drain.
  std::vector<ResourceId> touched_;
  std::vector<PendingObservation> pending_;
};

}  // namespace aheft::grid

#endif  // AHEFT_GRID_HISTORY_H_
