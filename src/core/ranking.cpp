#include "core/ranking.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/assert.h"

namespace aheft::core {

std::vector<double> upward_ranks(const dag::Dag& dag,
                                 const grid::CostProvider& costs,
                                 std::span<const grid::ResourceId> resources) {
  AHEFT_REQUIRE(!resources.empty(), "rank needs at least one resource");
  const auto& topo = dag.topological_order();
  std::vector<double> rank(dag.job_count(), 0.0);
  // Traverse in reverse topological order so successors are ranked first.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const dag::JobId i = *it;
    double best_successor = 0.0;
    for (const std::uint32_t e : dag.out_edges(i)) {
      const dag::Edge& edge = dag.edges()[e];
      best_successor = std::max(
          best_successor, costs.mean_comm_cost(edge) + rank[edge.to]);
    }
    rank[i] = costs.mean_compute_cost(i, resources) + best_successor;
  }
  return rank;
}

std::vector<dag::JobId> rank_order(const std::vector<double>& ranks) {
  // Rank values are sums of cost averages; mathematically equal ranks can
  // differ by floating-point dust (the sample DAG's n3 and n4 both rank
  // exactly 80). Near-equal ranks therefore tie and fall back to the job
  // id, keeping the order deterministic and matching [19].
  const auto nearly_equal = [](double a, double b) {
    const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
    return std::fabs(a - b) <= 1e-9 * scale;
  };
  std::vector<dag::JobId> order(ranks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](dag::JobId a, dag::JobId b) {
                     if (!nearly_equal(ranks[a], ranks[b])) {
                       return ranks[a] > ranks[b];
                     }
                     return a < b;
                   });
  return order;
}

}  // namespace aheft::core
