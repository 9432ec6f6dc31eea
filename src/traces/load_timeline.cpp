#include "traces/load_timeline.h"

#include <algorithm>
#include <cmath>

#include "support/assert.h"

namespace aheft::traces {

void LoadTimeline::add(grid::ResourceId resource, sim::Time start,
                       sim::Time end, double multiplier) {
  AHEFT_REQUIRE(resource != grid::kInvalidResource,
                "load segment needs a valid resource");
  AHEFT_REQUIRE(start >= 0.0, "load segment start must be non-negative");
  AHEFT_REQUIRE(end > start, "load segment must end after it starts");
  AHEFT_REQUIRE(multiplier > 0.0 && !std::isinf(multiplier) &&
                    !std::isnan(multiplier),
                "load multiplier must be finite and > 0");
  segments_.push_back(LoadSegment{resource, start, end, multiplier});
  index(segments_.back());
}

void LoadTimeline::index(const LoadSegment& segment) {
  if (segment.resource >= by_resource_.size()) {
    by_resource_.resize(static_cast<std::size_t>(segment.resource) + 1);
  }
  ResourceSegments& row = by_resource_[segment.resource];
  if (!row.segments.empty() && segment.start < row.segments.back().start) {
    row.start_sorted = false;
  }
  row.segments.push_back(segment);
}

double LoadTimeline::factor(grid::ResourceId resource, sim::Time t) const {
  double product = 1.0;
  if (resource >= by_resource_.size()) {
    return product;
  }
  const ResourceSegments& row = by_resource_[resource];
  for (const LoadSegment& segment : row.segments) {
    if (row.start_sorted && segment.start > t) {
      break;  // every later segment starts after t too
    }
    if (segment.start <= t && t < segment.end) {
      product *= segment.multiplier;
    }
  }
  return product;
}

void LoadTimeline::sort() {
  std::sort(segments_.begin(), segments_.end(),
            [](const LoadSegment& a, const LoadSegment& b) {
              if (a.resource != b.resource) return a.resource < b.resource;
              if (a.start != b.start) return a.start < b.start;
              if (a.end != b.end) return a.end < b.end;
              return a.multiplier < b.multiplier;
            });
  by_resource_.clear();
  for (const LoadSegment& segment : segments_) {
    index(segment);
  }
}

}  // namespace aheft::traces
