#include "dag/algorithms.h"

#include <algorithm>

namespace aheft::dag {

std::vector<std::uint32_t> levels(const Dag& dag) {
  std::vector<std::uint32_t> level(dag.job_count(), 0);
  for (const JobId id : dag.topological_order()) {
    std::uint32_t depth = 0;
    for (const std::uint32_t e : dag.in_edges(id)) {
      depth = std::max(depth, level[dag.edges()[e].from] + 1);
    }
    level[id] = depth;
  }
  return level;
}

std::vector<std::uint32_t> level_widths(const Dag& dag) {
  const auto level = levels(dag);
  const std::uint32_t depth =
      level.empty() ? 0 : *std::max_element(level.begin(), level.end()) + 1;
  std::vector<std::uint32_t> width(depth, 0);
  for (const std::uint32_t l : level) {
    ++width[l];
  }
  return width;
}

std::uint32_t max_parallelism(const Dag& dag) {
  const auto widths = level_widths(dag);
  return widths.empty() ? 0
                        : *std::max_element(widths.begin(), widths.end());
}

}  // namespace aheft::dag
