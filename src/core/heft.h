// Classic static HEFT [19] as a thin specialization of the AHEFT pass.
//
// The paper observes (§3.4) that "AHEFT is identical to HEFT when clock = 0
// or it is the initial scheduling"; the library encodes that literally.
#ifndef AHEFT_CORE_HEFT_H_
#define AHEFT_CORE_HEFT_H_

#include "core/policies.h"
#include "core/schedule.h"
#include "dag/dag.h"
#include "grid/cost_provider.h"
#include "grid/resource_pool.h"

namespace aheft::core {

/// Schedules the whole DAG statically on the resources visible at time
/// `clock` (default 0). Resources that arrive later are ignored — that is
/// precisely the weakness AHEFT addresses. `availability` optionally
/// carries a snapshot of foreign machine load (a multi-DAG session's
/// ledger picture); every EST search then fits into its free gaps. Null
/// or empty keeps the classic contention-blind plan bit-identical.
/// `allow_infeasible` forwards RescheduleRequest::allow_infeasible:
/// under restart semantics a job no machine can finish is planned onto
/// the longest-surviving wall instead of failing the pass.
[[nodiscard]] Schedule heft_schedule(
    const dag::Dag& dag, const grid::CostProvider& estimates,
    const grid::ResourcePool& pool, SchedulerConfig config = {},
    sim::Time clock = sim::kTimeZero,
    const AvailabilityView* availability = nullptr,
    bool allow_infeasible = false);

}  // namespace aheft::core

#endif  // AHEFT_CORE_HEFT_H_
