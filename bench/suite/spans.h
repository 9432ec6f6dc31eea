// In-memory span recording for bench_suite's traced run.
//
// A span marks one call the benchmark makes into a library layer: its
// name, start, duration and the span that was open when it began. Spans
// stay in memory while the repetition runs and are written once, at exit,
// as Chrome trace events (load the file in chrome://tracing or Perfetto).
// The recorder is single-threaded by design: the benchmark only opens
// spans on its own thread, around calls that return before the next one.
#ifndef AHEFT_BENCH_SUITE_SPANS_H_
#define AHEFT_BENCH_SUITE_SPANS_H_

#include <chrono>
#include <cstddef>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace aheft::suite {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double duration_us = 0.0;
    std::size_t id = 0;      ///< 1-based
    std::size_t parent = 0;  ///< 0: opened at top level
  };

  /// Opens a span nested in the innermost open one; returns its id.
  std::size_t open(std::string name) {
    Span span;
    span.name = std::move(name);
    span.start_us = now_us();
    span.id = spans_.size() + 1;
    span.parent = stack_.empty() ? 0 : stack_.back();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  /// Closes span `id`. ScopedSpan's nesting keeps it the innermost one.
  void close(std::size_t id) noexcept {
    stack_.pop_back();
    Span& span = spans_[id - 1];
    span.duration_us = now_us() - span.start_us;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration in seconds per name of the spans from the `from`-th
  /// (0-based) on.
  [[nodiscard]] std::map<std::string, double> totals_s(
      std::size_t from = 0) const {
    std::map<std::string, double> totals;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      totals[spans_[i].name] += spans_[i].duration_us * 1e-6;
    }
    return totals;
  }

  /// Writes the spans as Chrome trace "complete" events.
  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      throw std::runtime_error("cannot write trace file " + path);
    }
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << span.name
          << "\", \"cat\": \"bench_suite\", \"ph\": \"X\", \"pid\": 1, "
             "\"tid\": 1, \"ts\": "
          << span.start_us << ", \"dur\": " << span.duration_us
          << ", \"args\": {\"id\": " << span.id << ", \"parent\": "
          << span.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Opens a span for its lifetime; a null recorder (the untraced run)
/// records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->open(name) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->close(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t id_;
};

}  // namespace aheft::suite

#endif  // AHEFT_BENCH_SUITE_SPANS_H_
