#include "grid/cost_provider.h"

#include "support/assert.h"

namespace aheft::grid {

double CostProvider::mean_compute_cost(
    dag::JobId job, std::span<const ResourceId> resources) const {
  AHEFT_REQUIRE(!resources.empty(), "mean over empty resource set");
  double total = 0.0;
  for (const ResourceId r : resources) {
    total += compute_cost(job, r);
  }
  return total / static_cast<double>(resources.size());
}

void CostProvider::compute_costs(dag::JobId job,
                                 std::span<const ResourceId> resources,
                                 std::span<double> out) const {
  AHEFT_REQUIRE(out.size() == resources.size(),
                "one compute cost per resource");
  for (std::size_t k = 0; k < resources.size(); ++k) {
    out[k] = compute_cost(job, resources[k]);
  }
}

}  // namespace aheft::grid
