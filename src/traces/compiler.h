// compile_trace() turns a parsed GridTrace into the inputs the rest of
// the library consumes: a grid::ResourcePool availability timeline and a
// LoadTimeline of effective cost scaling for the execution engine. The
// planner reads pool changes straight from the pool and load-driven
// variance from the engine, so a scenario carries nothing else.
//
// record_scenario() is the inverse: it snapshots a pool + load timeline
// back into a writable trace, so any simulated environment — including
// one mutated mid-setup (injected departures, generated volatility) —
// can be persisted and replayed bit-identically.
#ifndef AHEFT_TRACES_COMPILER_H_
#define AHEFT_TRACES_COMPILER_H_

#include <string>
#include <vector>

#include "grid/resource_pool.h"
#include "traces/load_timeline.h"
#include "traces/trace_format.h"

namespace aheft::traces {

/// A trace compiled into live simulation inputs.
struct CompiledScenario {
  grid::ResourcePool pool;
  LoadTimeline load;
  /// Workload arrival records carried through from the trace (empty for
  /// single-DAG scenarios, where every job is present at t = 0).
  std::vector<JobArrivalRecord> job_arrivals;
};

/// Compiles a parsed trace. The parser already enforced the per-record
/// invariants, so this only has to assemble the runtime structures.
[[nodiscard]] CompiledScenario compile_trace(const GridTrace& trace);

/// Snapshots a live scenario into a writable trace (load segments are
/// emitted in canonical order). compile_trace(record_scenario(s))
/// reproduces the same pool windows, load timeline and arrivals.
[[nodiscard]] GridTrace record_scenario(
    const grid::ResourcePool& pool, const LoadTimeline& load,
    std::string name, std::vector<JobArrivalRecord> jobs = {});
[[nodiscard]] GridTrace record_scenario(const CompiledScenario& scenario,
                                        std::string name);

}  // namespace aheft::traces

#endif  // AHEFT_TRACES_COMPILER_H_
