// Shared fixtures and validators for the aheft test suite.
#ifndef AHEFT_TESTS_HELPERS_H_
#define AHEFT_TESTS_HELPERS_H_

#include <cstdint>

#include "core/rescheduler.h"
#include "core/schedule.h"
#include "core/session.h"
#include "core/strategy.h"
#include "grid/machine_model.h"
#include "grid/resource_pool.h"
#include "sim/trace.h"
#include "workloads/scenario.h"
#include "workloads/workload.h"

namespace aheft::test {

/// A fully generated random case: workload + dynamic pool + cost matrix.
struct RandomCase {
  workloads::Workload workload;
  grid::ResourcePool pool;
  grid::MachineModel model;
};

struct RandomCaseOptions {
  std::size_t jobs = 30;
  double ccr = 1.0;
  double out_degree = 0.3;
  double beta = 0.5;
  std::size_t initial_resources = 4;
  double interval = 150.0;
  double fraction = 0.25;
  double horizon = 3000.0;
};

/// Deterministic random case from a seed.
[[nodiscard]] RandomCase make_random_case(std::uint64_t seed,
                                          const RandomCaseOptions& options = {});

/// A session environment over `pool` with every other member at its
/// default (FCFS, serial, nominal costs, no history), recording into
/// `trace` when given. Single-workflow tests run in such a session.
[[nodiscard]] core::SessionEnvironment solo_environment(
    const grid::ResourcePool& pool, sim::TraceRecorder* trace = nullptr);

/// One AHEFT run of `dag` through core::run_strategy over
/// solo_environment(pool).
[[nodiscard]] core::StrategyOutcome run_aheft(
    const dag::Dag& dag, const grid::CostProvider& estimates,
    const grid::CostProvider& actual, const grid::ResourcePool& pool,
    const core::PlannerConfig& config = {});

/// Asserts two schedules are bit-identical: every job on the same
/// resource with the exact same start and finish (no epsilon). The
/// compat fence of contention-aware planning — an empty
/// AvailabilityView must not perturb a plan — is stated through this.
void expect_bit_identical(const core::Schedule& a, const core::Schedule& b);

/// Checks that an execution trace is a legal run of `dag` on the grid:
/// per-resource compute intervals are disjoint and inside availability
/// windows, every job has exactly one completed compute interval whose
/// duration matches the cost model, and every consumer starts only after
/// each predecessor's output could have reached its resource.
void expect_valid_trace(const sim::TraceRecorder& trace, const dag::Dag& dag,
                        const grid::CostProvider& costs,
                        const grid::ResourcePool& pool);

/// Reference Eq. 1 (FEA) for in-edge `edge_index` on `target`, one
/// comm_cost per call, as the planner priced it per (in-edge, candidate)
/// before EftSearch: S0's recorded copy when there is one, else the
/// configured TransferPolicy's window for a finished producer, and the
/// producer's `new_schedule` slot plus one transfer off its machine for
/// an unfinished one, which must be assigned there.
[[nodiscard]] sim::Time file_available(const core::RescheduleRequest& request,
                                       std::size_t edge_index,
                                       grid::ResourceId target,
                                       const core::Schedule& new_schedule);

}  // namespace aheft::test

#endif  // AHEFT_TESTS_HELPERS_H_
