#include "sim/trace.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "support/assert.h"
#include "support/table.h"

namespace aheft::sim {

void TraceRecorder::record(const TraceInterval& interval) {
  AHEFT_REQUIRE(time_le(interval.start, interval.end),
                interval.kind == IntervalKind::kCompute
                    ? "compute interval ends before it starts"
                    : "transfer interval ends before it starts");
  append(interval);
}

std::vector<StampedTraceRecord> StampedTraceSink::take_pending() {
  std::vector<StampedTraceRecord> out;
  out.swap(pending_);
  return out;
}

std::vector<TraceInterval> TraceRecorder::sorted(IntervalKind kind) const {
  std::vector<TraceInterval> out;
  for (const auto& interval : intervals_) {
    if (interval.kind == kind) {
      out.push_back(interval);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceInterval& a, const TraceInterval& b) {
                     return a.start < b.start;
                   });
  return out;
}

std::string TraceRecorder::gantt(
    const std::vector<std::string>& job_names,
    const std::vector<std::string>& resource_names) const {
  std::map<std::uint32_t, std::vector<TraceInterval>> by_resource;
  for (const auto& interval : intervals_) {
    if (interval.kind == IntervalKind::kCompute) {
      by_resource[interval.resource].push_back(interval);
    }
  }
  AsciiTable table({"resource", "timeline (job[start,end))"});
  for (auto& [resource, slots] : by_resource) {
    std::sort(slots.begin(), slots.end(),
              [](const TraceInterval& a, const TraceInterval& b) {
                return a.start < b.start;
              });
    std::ostringstream row;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (i != 0) {
        row << "  ";
      }
      const auto& slot = slots[i];
      const std::string job_name = slot.job < job_names.size()
                                       ? job_names[slot.job]
                                       : "j" + std::to_string(slot.job);
      row << job_name << "[" << format_double(slot.start, 1) << ","
          << format_double(slot.end, 1) << ")";
    }
    const std::string resource_name = resource < resource_names.size()
                                          ? resource_names[resource]
                                          : "r" + std::to_string(resource);
    table.add_row({resource_name, row.str()});
  }
  return table.to_string();
}

}  // namespace aheft::sim
