// Piecewise-constant per-resource load multipliers.
//
// The timeline is the in-memory form of a trace's `load` records and the
// volatility generators' spike output; it implements grid::LoadProfile so
// the execution engine can stretch realized run times without the planner
// (which schedules against nominal estimates) knowing.
#ifndef AHEFT_TRACES_LOAD_TIMELINE_H_
#define AHEFT_TRACES_LOAD_TIMELINE_H_

#include <vector>

#include "grid/load_profile.h"
#include "grid/resource.h"
#include "sim/time.h"

namespace aheft::traces {

/// One half-open segment [start, end) of elevated (or reduced) load.
struct LoadSegment {
  grid::ResourceId resource = 0;
  sim::Time start = sim::kTimeZero;
  sim::Time end = sim::kTimeInfinity;
  double multiplier = 1.0;

  bool operator==(const LoadSegment&) const = default;
};

class LoadTimeline final : public grid::LoadProfile {
 public:
  /// Appends a segment; multiplier must be finite and > 0, end > start.
  /// Overlapping segments on the same resource compose multiplicatively.
  void add(grid::ResourceId resource, sim::Time start, sim::Time end,
           double multiplier);

  /// Product of every segment covering (resource, t); 1.0 when none does.
  [[nodiscard]] double factor(grid::ResourceId resource,
                              sim::Time t) const override;

  [[nodiscard]] bool empty() const noexcept { return segments_.empty(); }
  [[nodiscard]] const std::vector<LoadSegment>& segments() const noexcept {
    return segments_;
  }

  /// Canonical ordering (resource, start, end, multiplier); recording and
  /// equality checks normalize through this.
  void sort();

  bool operator==(const LoadTimeline& other) const {
    return segments_ == other.segments_;
  }

 private:
  /// One resource's segments, in segments_ order.
  struct ResourceSegments {
    std::vector<LoadSegment> segments;
    /// Whether the starts are nondecreasing (always true after sort()),
    /// so factor() may stop at the first segment starting after t.
    bool start_sorted = true;
  };

  void index(const LoadSegment& segment);

  std::vector<LoadSegment> segments_;
  /// Indexed by ResourceId: factor() scans only its resource's segments
  /// and multiplies them in segments_ order, so products are
  /// bit-identical to a scan of every segment.
  std::vector<ResourceSegments> by_resource_;
};

}  // namespace aheft::traces

#endif  // AHEFT_TRACES_LOAD_TIMELINE_H_
