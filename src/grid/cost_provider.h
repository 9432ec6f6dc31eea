// The cost interface shared by the ground-truth machine model and every
// estimator.
//
// Schedulers plan against a CostProvider (the paper's performance
// estimation matrix P); the execution engine consumes the ground truth.
// Under the paper's accuracy assumption both are the same object; the
// inaccuracy ablation plugs in a noisy estimator instead.
//
// Contract: every query is pure — the same arguments always give the same
// value, however often and in whatever order it is asked — and comm_cost
// is >= 0. The planner's EFT search relies on both: it prices a transfer
// only for the candidates it cannot rule out, and rules a candidate out by
// a lower bound that assumes no transfer is negative. MachineModel meets
// it (Dag::add_edge requires data >= 0; LinkModel requires latency >= 0
// and bandwidth > 0), and so do the predictors: their transfer costs are
// the truth's, and their compute costs are fixed per (job, resource) —
// HistoryBlendingPredictor's only between history observations, which
// never happen while a plan is made.
#ifndef AHEFT_GRID_COST_PROVIDER_H_
#define AHEFT_GRID_COST_PROVIDER_H_

#include <span>

#include "dag/dag.h"
#include "grid/resource.h"

namespace aheft::grid {

class CostProvider {
 public:
  virtual ~CostProvider() = default;

  /// Computation cost w_{i,j} of job i on resource j.
  [[nodiscard]] virtual double compute_cost(dag::JobId job,
                                            ResourceId resource) const = 0;

  /// Communication cost of moving edge `e`'s payload from resource `from`
  /// to resource `to` (0 when from == to); never negative.
  [[nodiscard]] virtual double comm_cost(const dag::Edge& e, ResourceId from,
                                         ResourceId to) const = 0;

  /// Average communication cost of the edge across distinct resource pairs
  /// (the \bar{c}_{i,j} of the upward-rank definition, Eq. 5).
  [[nodiscard]] virtual double mean_comm_cost(const dag::Edge& e) const = 0;

  /// Average computation cost of a job over a resource set (the \bar{w}_i
  /// of Eq. 5). Provided here so estimators can override consistently.
  [[nodiscard]] virtual double mean_compute_cost(
      dag::JobId job, std::span<const ResourceId> resources) const;
};

}  // namespace aheft::grid

#endif  // AHEFT_GRID_COST_PROVIDER_H_
