#include "grid/history.h"

#include <algorithm>
#include <tuple>

#include "support/assert.h"

namespace aheft::grid {

PerformanceHistoryRepository::PerformanceHistoryRepository(double smoothing)
    : smoothing_(smoothing) {
  AHEFT_REQUIRE(smoothing > 0.0 && smoothing <= 1.0,
                "smoothing must be in (0, 1]");
}

namespace {

/// Row order: operation name.
template <typename Keyed>
bool operation_before(const Keyed& keyed, const std::string& operation) {
  return keyed.operation < operation;
}

}  // namespace

const PerformanceHistoryRepository::Entry* PerformanceHistoryRepository::find(
    const std::string& operation, ResourceId resource) const {
  if (resource >= rows_.size()) {
    return nullptr;
  }
  const std::vector<Keyed>& row = rows_[resource];
  const auto it = std::lower_bound(row.begin(), row.end(), operation,
                                   operation_before<Keyed>);
  return it != row.end() && it->operation == operation ? &it->entry
                                                       : nullptr;
}

PerformanceHistoryRepository::Entry& PerformanceHistoryRepository::entry_for(
    const std::string& operation, ResourceId resource) {
  AHEFT_REQUIRE(resource != kInvalidResource,
                "history needs a valid resource");
  if (resource >= rows_.size()) {
    rows_.resize(static_cast<std::size_t>(resource) + 1);
  }
  std::vector<Keyed>& row = rows_[resource];
  auto it = std::lower_bound(row.begin(), row.end(), operation,
                             operation_before<Keyed>);
  if (it == row.end() || it->operation != operation) {
    it = row.insert(it, Keyed{operation, {}});
  }
  return it->entry;
}

bool PerformanceHistoryRepository::row_empty(ResourceId resource) const {
  return resource >= rows_.size() || rows_[resource].empty();
}

void PerformanceHistoryRepository::clear_row(ResourceId resource) {
  rows_[resource].clear();
}

void PerformanceHistoryRepository::record(const std::string& operation,
                                          ResourceId resource,
                                          double actual_duration) {
  AHEFT_REQUIRE(actual_duration >= 0.0, "duration must be non-negative");
  Entry& entry = entry_for(operation, resource);
  if (entry.count == 0) {
    entry.smoothed = actual_duration;
  } else {
    entry.smoothed =
        smoothing_ * actual_duration + (1.0 - smoothing_) * entry.smoothed;
  }
  ++entry.count;
  ++total_;
}

std::optional<double> PerformanceHistoryRepository::estimate(
    const std::string& operation, ResourceId resource) const {
  const Entry* entry = find(operation, resource);
  if (entry == nullptr) {
    return std::nullopt;
  }
  return entry->smoothed;
}

std::size_t PerformanceHistoryRepository::observations(
    const std::string& operation, ResourceId resource) const {
  const Entry* entry = find(operation, resource);
  return entry == nullptr ? 0 : entry->count;
}

std::vector<PerformanceHistoryRepository::Observation>
PerformanceHistoryRepository::snapshot() const {
  std::vector<Observation> out;
  for (ResourceId resource = 0; resource < rows_.size(); ++resource) {
    for (const Keyed& keyed : rows_[resource]) {
      out.push_back(Observation{keyed.operation, resource,
                                keyed.entry.smoothed, keyed.entry.count});
    }
  }
  // Key order is (operation, resource), whatever the storage layout.
  std::sort(out.begin(), out.end(),
            [](const Observation& a, const Observation& b) {
              return std::tie(a.operation, a.resource) <
                     std::tie(b.operation, b.resource);
            });
  return out;
}

void PerformanceHistoryRepository::clear() {
  rows_.clear();
  total_ = 0;
}

HistoryDelta::HistoryDelta(const PerformanceHistoryRepository& base,
                           std::function<double()> clock)
    : PerformanceHistoryRepository(base.smoothing()),
      base_(&base),
      clock_(std::move(clock)) {}

void HistoryDelta::record(const std::string& operation, ResourceId resource,
                          double actual_duration) {
  AHEFT_REQUIRE(actual_duration >= 0.0, "duration must be non-negative");
  // The overlay lives in the inherited table; total_observations() stays
  // the count of records the delta absorbed as a repository, which is 0.
  if (row_empty(resource)) {
    touched_.push_back(resource);
  }
  Entry& overlay = entry_for(operation, resource);
  if (overlay.count == 0) {
    // First delta-local record for this key: seed from the base entry so
    // the EWMA continues exactly where the barrier replay will leave it.
    if (const auto base_estimate = base_->estimate(operation, resource)) {
      overlay.smoothed = *base_estimate;
      overlay.count = base_->observations(operation, resource);
    }
  }
  if (overlay.count == 0) {
    overlay.smoothed = actual_duration;
  } else {
    overlay.smoothed = smoothing() * actual_duration +
                       (1.0 - smoothing()) * overlay.smoothed;
  }
  ++overlay.count;
  pending_.push_back(
      PendingObservation{clock_(), seq_++, operation, resource,
                         actual_duration});
}

std::optional<double> HistoryDelta::estimate(const std::string& operation,
                                             ResourceId resource) const {
  if (const Entry* overlay = find(operation, resource)) {
    return overlay->smoothed;
  }
  return base_->estimate(operation, resource);
}

std::size_t HistoryDelta::observations(const std::string& operation,
                                       ResourceId resource) const {
  if (const Entry* overlay = find(operation, resource)) {
    return overlay->count;
  }
  return base_->observations(operation, resource);
}

std::vector<PendingObservation> HistoryDelta::take_pending() {
  std::vector<PendingObservation> out;
  out.swap(pending_);
  for (const ResourceId resource : touched_) {
    clear_row(resource);
  }
  touched_.clear();
  return out;
}

}  // namespace aheft::grid
