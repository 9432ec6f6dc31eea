#include "grid/machine_model.h"

#include "support/assert.h"

namespace aheft::grid {

MachineModel::MachineModel(std::size_t job_count, std::size_t resource_count,
                           LinkModel link)
    : jobs_(job_count),
      resources_(resource_count),
      link_(link),
      w_(job_count * resource_count, 0.0) {
  AHEFT_REQUIRE(job_count > 0, "machine model needs at least one job");
  AHEFT_REQUIRE(resource_count > 0,
                "machine model needs at least one resource");
  AHEFT_REQUIRE(link.bandwidth > 0.0, "bandwidth must be positive");
  AHEFT_REQUIRE(link.latency >= 0.0, "latency must be non-negative");
}

void MachineModel::set_compute_cost(dag::JobId job, ResourceId resource,
                                    double cost) {
  AHEFT_REQUIRE(job < jobs_ && resource < resources_,
                "cost index out of range");
  AHEFT_REQUIRE(cost > 0.0, "computation cost must be positive");
  w_[job * resources_ + resource] = cost;
}

double MachineModel::compute_cost(dag::JobId job, ResourceId resource) const {
  AHEFT_REQUIRE(job < jobs_ && resource < resources_,
                "cost index out of range");
  const double cost = w_[job * resources_ + resource];
  AHEFT_ASSERT(cost > 0.0, "computation cost was never set for job " +
                               std::to_string(job) + " on resource " +
                               std::to_string(resource));
  return cost;
}

double MachineModel::mean_compute_cost(
    dag::JobId job, std::span<const ResourceId> resources) const {
  AHEFT_REQUIRE(!resources.empty(), "mean over empty resource set");
  AHEFT_REQUIRE(job < jobs_, "cost index out of range");
  const double* row = w_.data() + job * resources_;
  double total = 0.0;
  for (const ResourceId r : resources) {
    AHEFT_REQUIRE(r < resources_, "cost index out of range");
    const double cost = row[r];
    AHEFT_ASSERT(cost > 0.0, "computation cost was never set for job " +
                                 std::to_string(job) + " on resource " +
                                 std::to_string(r));
    total += cost;
  }
  return total / static_cast<double>(resources.size());
}

void MachineModel::compute_costs(dag::JobId job,
                                 std::span<const ResourceId> resources,
                                 std::span<double> out) const {
  AHEFT_REQUIRE(out.size() == resources.size(),
                "one compute cost per resource");
  AHEFT_REQUIRE(job < jobs_, "cost index out of range");
  const double* row = w_.data() + job * resources_;
  for (std::size_t k = 0; k < resources.size(); ++k) {
    const ResourceId r = resources[k];
    AHEFT_REQUIRE(r < resources_, "cost index out of range");
    out[k] = row[r];
    AHEFT_ASSERT(out[k] > 0.0, "computation cost was never set for job " +
                                   std::to_string(job) + " on resource " +
                                   std::to_string(r));
  }
}

double MachineModel::comm_cost(const dag::Edge& e, ResourceId from,
                               ResourceId to) const {
  if (from == to) {
    return 0.0;
  }
  return link_.transfer_cost(e.data);
}

double MachineModel::mean_comm_cost(const dag::Edge& e) const {
  // With a uniform link model every distinct pair costs the same.
  return link_.transfer_cost(e.data);
}

}  // namespace aheft::grid
