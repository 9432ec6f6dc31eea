// Ground-truth machine model: per-(job, resource) computation costs plus a
// uniform network link model.
#ifndef AHEFT_GRID_MACHINE_MODEL_H_
#define AHEFT_GRID_MACHINE_MODEL_H_

#include <vector>

#include "grid/cost_provider.h"

namespace aheft::grid {

/// Uniform network: transferring `data` units between two distinct
/// resources costs latency + data / bandwidth. The paper's sample DAG
/// (Fig. 4) uses edge weights directly as communication costs, i.e.
/// latency 0 and bandwidth 1 — the defaults here.
struct LinkModel {
  double latency = 0.0;
  double bandwidth = 1.0;

  [[nodiscard]] double transfer_cost(double data) const {
    return latency + data / bandwidth;
  }
};

/// Dense w_{i,j} matrix over the full resource universe; implements the
/// CostProvider interface with exact values.
class MachineModel final : public CostProvider {
 public:
  MachineModel(std::size_t job_count, std::size_t resource_count,
               LinkModel link = {});

  void set_compute_cost(dag::JobId job, ResourceId resource, double cost);

  [[nodiscard]] std::size_t job_count() const noexcept { return jobs_; }
  [[nodiscard]] std::size_t resource_count() const noexcept {
    return resources_;
  }
  [[nodiscard]] const LinkModel& link() const noexcept { return link_; }

  // CostProvider:
  [[nodiscard]] double compute_cost(dag::JobId job,
                                    ResourceId resource) const override;
  [[nodiscard]] double comm_cost(const dag::Edge& e, ResourceId from,
                                 ResourceId to) const override;
  [[nodiscard]] double mean_comm_cost(const dag::Edge& e) const override;
  /// The base-class mean, summed straight off the job's row in
  /// `resources` order with compute_cost's checks, so it is bit-identical
  /// to it at one loop instead of one virtual call per resource.
  [[nodiscard]] double mean_compute_cost(
      dag::JobId job, std::span<const ResourceId> resources) const override;
  /// compute_cost over `resources`, read straight off the job's row with
  /// compute_cost's checks.
  void compute_costs(dag::JobId job, std::span<const ResourceId> resources,
                     std::span<double> out) const override;

 private:
  std::size_t jobs_;
  std::size_t resources_;
  LinkModel link_;
  std::vector<double> w_;  ///< row-major [job][resource]
};

}  // namespace aheft::grid

#endif  // AHEFT_GRID_MACHINE_MODEL_H_
