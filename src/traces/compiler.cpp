#include "traces/compiler.h"

namespace aheft::traces {

CompiledScenario compile_trace(const GridTrace& trace) {
  CompiledScenario scenario;
  for (const ResourceRecord& record : trace.resources) {
    scenario.pool.add(grid::Resource{.name = record.name,
                                     .arrival = record.arrival,
                                     .departure = record.departure});
  }
  for (const LoadRecord& record : trace.load) {
    scenario.load.add(record.resource, record.start, record.end,
                      record.multiplier);
  }
  scenario.load.sort();
  scenario.job_arrivals = trace.jobs;
  return scenario;
}

GridTrace record_scenario(const grid::ResourcePool& pool,
                          const LoadTimeline& load, std::string name,
                          std::vector<JobArrivalRecord> jobs) {
  GridTrace trace;
  trace.name = std::move(name);
  for (const grid::Resource& r : pool.all()) {
    trace.resources.push_back(
        ResourceRecord{r.id, r.arrival, r.departure, r.name});
  }
  LoadTimeline canonical = load;
  canonical.sort();
  for (const LoadSegment& segment : canonical.segments()) {
    trace.load.push_back(LoadRecord{segment.resource, segment.start,
                                    segment.end, segment.multiplier});
  }
  trace.jobs = std::move(jobs);
  return trace;
}

GridTrace record_scenario(const CompiledScenario& scenario,
                          std::string name) {
  return record_scenario(scenario.pool, scenario.load, std::move(name),
                         scenario.job_arrivals);
}

}  // namespace aheft::traces
