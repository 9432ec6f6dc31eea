#include "core/heft.h"

#include "core/rescheduler.h"
#include "support/assert.h"

namespace aheft::core {

Schedule heft_schedule(const dag::Dag& dag,
                       const grid::CostProvider& estimates,
                       const grid::ResourcePool& pool, SchedulerConfig config,
                       sim::Time clock, const AvailabilityView* availability,
                       bool allow_infeasible) {
  RescheduleRequest request;
  request.dag = &dag;
  request.estimates = &estimates;
  request.pool = &pool;
  request.resources = pool.available_at(clock);
  request.clock = clock;
  request.snapshot = nullptr;
  request.previous = nullptr;
  request.config = config;
  request.availability = availability;
  request.allow_infeasible = allow_infeasible;
  return aheft_schedule(request);
}

}  // namespace aheft::core
