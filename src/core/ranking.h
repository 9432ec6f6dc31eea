// Upward rank computation (paper Eq. 5–6, after [19]).
#ifndef AHEFT_CORE_RANKING_H_
#define AHEFT_CORE_RANKING_H_

#include <span>
#include <vector>

#include "dag/dag.h"
#include "grid/cost_provider.h"

namespace aheft::core {

/// ranku(n_i) = \bar{w}_i + max_{n_j in succ(n_i)} (\bar{c}_{i,j} +
/// ranku(n_j)); exit jobs have ranku = \bar{w}. Averages are taken over
/// `resources` (the currently visible set).
[[nodiscard]] std::vector<double> upward_ranks(
    const dag::Dag& dag, const grid::CostProvider& costs,
    std::span<const grid::ResourceId> resources);

/// Job ids sorted by non-increasing rank; ties break toward the smaller
/// job id so the order is deterministic.
[[nodiscard]] std::vector<dag::JobId> rank_order(
    const std::vector<double>& ranks);

}  // namespace aheft::core

#endif  // AHEFT_CORE_RANKING_H_
