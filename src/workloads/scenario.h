// Grid scenario construction: expanding a workload's base costs into the
// heterogeneous w_{i,j} matrix and building the dynamic resource pool.
//
// Key reproducibility property: the cost column of resource j is a
// deterministic function of (seed, job, j) alone, so the universe can be
// sized after an initial HEFT pass without perturbing the costs of
// already-generated resources — HEFT, AHEFT and the dynamic baseline all
// face bit-identical machines.
#ifndef AHEFT_WORKLOADS_SCENARIO_H_
#define AHEFT_WORKLOADS_SCENARIO_H_

#include <cstdint>

#include "grid/machine_model.h"
#include "grid/resource_pool.h"
#include "workloads/workload.h"

namespace aheft::workloads {

/// The paper's resource-dynamics parameters (Table 2 / Table 5).
struct ResourceDynamics {
  std::size_t initial = 10;   ///< R: initial pool size
  double interval = 800.0;    ///< Delta: time between resource changes
  double fraction = 0.15;     ///< delta: fraction of R added per change
};

/// Validates dynamics parameters; throws std::invalid_argument naming the
/// offending field and value (initial == 0, interval <= 0 or fraction < 0
/// would otherwise build a degenerate pool). Every pool builder and
/// scenario source funnels through this.
void validate(const ResourceDynamics& dynamics);

/// Number of resources added at each change: max(1, round(delta * R)).
[[nodiscard]] std::size_t arrivals_per_change(const ResourceDynamics& d);

/// Builds the pool: `initial` resources at t = 0 plus arrivals_per_change
/// new resources at every multiple of `interval` in (0, horizon].
[[nodiscard]] grid::ResourcePool build_dynamic_pool(
    const ResourceDynamics& dynamics, sim::Time horizon);

/// Expands base costs into w_{i,j} = omega_i * U(1 - beta/2, 1 + beta/2)
/// over `universe` resources (paper §4.2's heterogeneity law). beta must
/// lie in [0, 2) so costs stay positive; beta = 0 gives homogeneous
/// resources.
[[nodiscard]] grid::MachineModel build_machine_model(
    const Workload& workload, std::size_t universe, double beta,
    std::uint64_t seed);

/// build_machine_model over `universe` resources that copies the columns
/// `base` already holds instead of drawing them again: equal to
/// build_machine_model(workload, universe, beta, seed) whenever `base` was
/// built from the same (workload, beta, seed), at any universe size.
[[nodiscard]] grid::MachineModel extend_machine_model(
    const grid::MachineModel& base, const Workload& workload,
    std::size_t universe, double beta, std::uint64_t seed);

}  // namespace aheft::workloads

#endif  // AHEFT_WORKLOADS_SCENARIO_H_
