// The cost interface shared by the ground-truth machine model and every
// estimator.
//
// Schedulers plan against a CostProvider (the paper's performance
// estimation matrix P); the execution engine consumes the ground truth.
// Under the paper's accuracy assumption both are the same object; the
// inaccuracy ablation plugs in a noisy estimator instead.
//
// Contract:
//  * every query is pure — the same arguments always give the same value,
//    however often and in whatever order it is asked;
//  * comm_cost is >= 0;
//  * links are uniform: comm_cost(e, a, a) == 0, and comm_cost(e, a, b) ==
//    mean_comm_cost(e) bit for bit for every a != b.
// The planner's EFT search relies on all three: it prices each in-edge of a
// job once, through mean_comm_cost, and derives every candidate's data-ready
// time from those prices by exact maxima, so a candidate's transfer is 0 on
// the producer's machine and that one price elsewhere. MachineModel meets
// the contract (Dag::add_edge requires data >= 0; LinkModel requires
// latency >= 0 and bandwidth > 0, and charges latency + data / bandwidth
// between any two distinct machines), and so do the predictors: their
// transfer costs are the truth's, and their compute costs are fixed per
// (job, resource) — HistoryBlendingPredictor's only between history
// observations, which never happen while a plan is made. A contended link
// model would break the uniformity and has to revisit the EFT search.
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

  /// compute_cost(job, resources[k]) into out[k] for every k, in order;
  /// `out` must be as long as `resources`. The base class asks
  /// compute_cost once per resource, so a wrapper that counts or logs
  /// compute_cost still sees every query; a dense model overrides it to
  /// read its row at one virtual call.
  virtual void compute_costs(dag::JobId job,
                             std::span<const ResourceId> resources,
                             std::span<double> out) const;
};

}  // namespace aheft::grid

#endif  // AHEFT_GRID_COST_PROVIDER_H_
