// Execution trace recording: what ran where, when, and which files moved.
//
// Traces back the paper's Fig. 5 Gantt charts and let tests assert that a
// simulated execution actually honored a schedule.
//
// `TraceRecorder` is the serial append-only sink. `StampedTraceSink`
// subclasses it for the sharded core: each shard owns one, writes it from
// its own drain thread only, and the session merges the stamped pending
// records into the shared recorder at tick barriers in deterministic
// (stamp, origin shard, origin seq) order with merge_stamped_runs().
#ifndef AHEFT_SIM_TRACE_H_
#define AHEFT_SIM_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace aheft::sim {

enum class IntervalKind { kCompute, kTransfer };

/// One closed interval of activity in a simulated execution.
struct TraceInterval {
  IntervalKind kind = IntervalKind::kCompute;
  std::uint32_t job = 0;           ///< job being computed / produced the file
  std::uint32_t consumer = 0;      ///< for transfers: receiving job
  std::uint32_t resource = 0;      ///< compute location / transfer target
  Time start = kTimeZero;
  Time end = kTimeZero;
};

/// Append-only trace of a simulation run.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = default;
  TraceRecorder& operator=(const TraceRecorder&) = default;
  TraceRecorder(TraceRecorder&&) = default;
  TraceRecorder& operator=(TraceRecorder&&) = default;
  virtual ~TraceRecorder() = default;

  void record_compute(std::uint32_t job, std::uint32_t resource, Time start,
                      Time end) {
    record(TraceInterval{IntervalKind::kCompute, job, job, resource, start,
                         end});
  }
  void record_transfer(std::uint32_t producer, std::uint32_t consumer,
                       std::uint32_t target_resource, Time start, Time end) {
    record(TraceInterval{IntervalKind::kTransfer, producer, consumer,
                         target_resource, start, end});
  }
  /// Validates `interval` (it must not end before it starts) and appends
  /// it.
  void record(const TraceInterval& interval);

  [[nodiscard]] const std::vector<TraceInterval>& intervals() const {
    return intervals_;
  }

  /// Intervals of one kind, sorted by start time (stable on ties).
  [[nodiscard]] std::vector<TraceInterval> sorted(IntervalKind kind) const;

  /// Renders a textual Gantt chart of compute intervals, one row per
  /// resource, in the style of the paper's Fig. 5.
  [[nodiscard]] std::string gantt(
      const std::vector<std::string>& job_names,
      const std::vector<std::string>& resource_names) const;

  void clear() { intervals_.clear(); }

 protected:
  /// Stores one validated interval; the serial recorder keeps it in
  /// intervals().
  virtual void append(const TraceInterval& interval) {
    intervals_.push_back(interval);
  }

 private:
  std::vector<TraceInterval> intervals_;
};

/// A trace record awaiting a deterministic barrier merge: the interval plus
/// the recording shard's clock and a per-sink append sequence number.
struct StampedTraceRecord {
  Time stamp = kTimeZero;  ///< recording shard's clock when the record landed
  std::uint64_t seq = 0;   ///< append order within the owning sink
  TraceInterval interval;
};

/// Shard-private trace buffer. Written only by the owning shard's drain
/// thread; the pending records are taken at tick barriers (on the
/// coordinator thread, with the drain workers parked) and replayed into the
/// shared `TraceRecorder` in (stamp, origin shard, seq) order. It keeps
/// each record once, in the pending run: its own intervals() stays empty.
class StampedTraceSink final : public TraceRecorder {
 public:
  /// `clock` reads the owning shard's simulation clock; it is called on the
  /// shard's drain thread at every record.
  explicit StampedTraceSink(std::function<Time()> clock)
      : clock_(std::move(clock)) {}

  /// Drains the records accumulated since the last call, in append order
  /// (nondecreasing stamp, strictly increasing seq).
  [[nodiscard]] std::vector<StampedTraceRecord> take_pending();

 protected:
  void append(const TraceInterval& interval) override {
    pending_.push_back(StampedTraceRecord{clock_(), seq_++, interval});
  }

 private:
  std::function<Time()> clock_;
  std::uint64_t seq_ = 0;
  std::vector<StampedTraceRecord> pending_;
};

/// Merges per-shard runs of stamped records into one (stamp, shard, seq)
/// sequence and calls `emit` on each record in that order. Every run must
/// already be in (stamp, seq) order — what take_pending() returns — so a
/// k-way merge suffices: it repeatedly emits the smallest head stamp, and
/// a stamp tie goes to the lower shard index. `Record` needs a `stamp`
/// member; both StampedTraceRecord and grid::PendingObservation qualify.
template <typename Record, typename Emit>
void merge_stamped_runs(const std::vector<std::vector<Record>>& runs,
                        Emit&& emit) {
  std::vector<std::size_t> heads(runs.size(), 0);
  while (true) {
    std::size_t best = runs.size();
    for (std::size_t s = 0; s < runs.size(); ++s) {
      if (heads[s] < runs[s].size() &&
          (best == runs.size() ||
           runs[s][heads[s]].stamp < runs[best][heads[best]].stamp)) {
        best = s;
      }
    }
    if (best == runs.size()) {
      return;
    }
    emit(runs[best][heads[best]++]);
  }
}

}  // namespace aheft::sim

#endif  // AHEFT_SIM_TRACE_H_
