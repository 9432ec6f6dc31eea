#include "workloads/scenario.h"

#include <algorithm>
#include <cmath>

#include "support/assert.h"
#include "support/rng.h"

namespace aheft::workloads {

namespace {

[[noreturn]] void reject(const char* field, double value,
                         const char* constraint) {
  throw std::invalid_argument(std::string("ResourceDynamics.") + field +
                              " must be " + constraint + " (got " +
                              std::to_string(value) + ")");
}

}  // namespace

void validate(const ResourceDynamics& dynamics) {
  if (dynamics.initial == 0) {
    reject("initial", 0.0, "at least 1");
  }
  if (!(dynamics.interval > 0.0)) {
    reject("interval", dynamics.interval, "> 0");
  }
  if (!(dynamics.fraction >= 0.0)) {
    reject("fraction", dynamics.fraction, ">= 0");
  }
}

std::size_t arrivals_per_change(const ResourceDynamics& d) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(d.fraction * static_cast<double>(d.initial))));
}

grid::ResourcePool build_dynamic_pool(const ResourceDynamics& dynamics,
                                      sim::Time horizon) {
  validate(dynamics);
  AHEFT_REQUIRE(horizon >= 0.0, "horizon must be non-negative");

  grid::ResourcePool pool;
  for (std::size_t i = 0; i < dynamics.initial; ++i) {
    pool.add(grid::Resource{.name = "", .arrival = sim::kTimeZero});
  }
  const std::size_t per_change = arrivals_per_change(dynamics);
  for (std::size_t change = 1;; ++change) {
    const sim::Time when =
        dynamics.interval * static_cast<double>(change);
    if (when > horizon) {
      break;
    }
    for (std::size_t k = 0; k < per_change; ++k) {
      pool.add(grid::Resource{.name = "", .arrival = when});
    }
  }
  return pool;
}

namespace {

/// Draws columns [first, universe) of `model`: cell (i, j) is a function of
/// (seed, i, j) alone, so it does not depend on the universe size or on
/// which other columns are drawn.
void draw_columns(grid::MachineModel& model, const Workload& workload,
                  double beta, std::uint64_t seed, grid::ResourceId first) {
  const std::size_t universe = model.resource_count();
  for (dag::JobId i = 0; i < model.job_count(); ++i) {
    for (grid::ResourceId j = first; j < universe; ++j) {
      const double factor =
          first_uniform(mix64(seed, (static_cast<std::uint64_t>(i) << 24) ^ j),
                        1.0 - beta / 2.0, 1.0 + beta / 2.0);
      model.set_compute_cost(i, j, workload.base_cost[i] * factor);
    }
  }
}

void require_model_inputs(const Workload& workload, std::size_t universe,
                          double beta) {
  AHEFT_REQUIRE(beta >= 0.0 && beta < 2.0, "beta must be in [0, 2)");
  AHEFT_REQUIRE(universe > 0, "universe must be non-empty");
  AHEFT_REQUIRE(workload.base_cost.size() == workload.dag.job_count(),
                "base costs and DAG disagree on job count");
}

}  // namespace

grid::MachineModel build_machine_model(const Workload& workload,
                                       std::size_t universe, double beta,
                                       std::uint64_t seed) {
  require_model_inputs(workload, universe, beta);
  grid::MachineModel model(workload.dag.job_count(), universe);
  draw_columns(model, workload, beta, seed, 0);
  return model;
}

grid::MachineModel extend_machine_model(const grid::MachineModel& base,
                                        const Workload& workload,
                                        std::size_t universe, double beta,
                                        std::uint64_t seed) {
  require_model_inputs(workload, universe, beta);
  AHEFT_REQUIRE(base.job_count() == workload.dag.job_count(),
                "base model and workload disagree on job count");
  const std::size_t kept = std::min(base.resource_count(), universe);
  grid::MachineModel model(workload.dag.job_count(), universe, base.link());
  for (dag::JobId i = 0; i < model.job_count(); ++i) {
    for (grid::ResourceId j = 0; j < kept; ++j) {
      model.set_compute_cost(i, j, base.compute_cost(i, j));
    }
  }
  draw_columns(model, workload, beta, seed, static_cast<grid::ResourceId>(kept));
  return model;
}

}  // namespace aheft::workloads
