// Predictors: the Planner-side estimate of computation/communication cost.
//
// Fig. 1 of the paper places a Predictor between the Scheduler and the
// Performance History Repository. Under the paper's accuracy assumption
// (§4.1) the planner reads the ground-truth model itself; NoisyPredictor
// perturbs the truth for the inaccuracy ablation; HistoryBlendingPredictor
// converges to the truth as executions of the same operation are observed
// (the collaboration loop of §3.2: "the Performance History Repository is
// updated to improve the estimation accuracy").
#ifndef AHEFT_GRID_PREDICTOR_H_
#define AHEFT_GRID_PREDICTOR_H_

#include <memory>

#include "grid/cost_provider.h"
#include "grid/history.h"
#include "support/rng.h"

namespace aheft::grid {

/// Multiplies each computation cost by a deterministic per-(job, resource)
/// factor drawn uniformly from [1 - error, 1 + error].
class NoisyPredictor final : public CostProvider {
 public:
  NoisyPredictor(const CostProvider& truth, double error, std::uint64_t seed);

  [[nodiscard]] double compute_cost(dag::JobId job,
                                    ResourceId resource) const override;
  [[nodiscard]] double comm_cost(const dag::Edge& e, ResourceId from,
                                 ResourceId to) const override {
    return truth_.comm_cost(e, from, to);
  }
  [[nodiscard]] double mean_comm_cost(const dag::Edge& e) const override {
    return truth_.mean_comm_cost(e);
  }

 private:
  const CostProvider& truth_;
  double error_;
  std::uint64_t seed_;
};

/// Blends a (possibly wrong) prior with smoothed observations from the
/// Performance History Repository, keyed by (operation, resource).
class HistoryBlendingPredictor final : public CostProvider {
 public:
  /// `prior` supplies the initial estimates; `dag` maps jobs to operations;
  /// `history` accumulates run-time observations.
  HistoryBlendingPredictor(const CostProvider& prior, const dag::Dag& dag,
                           const PerformanceHistoryRepository& history);

  [[nodiscard]] double compute_cost(dag::JobId job,
                                    ResourceId resource) const override;
  [[nodiscard]] double comm_cost(const dag::Edge& e, ResourceId from,
                                 ResourceId to) const override {
    return prior_.comm_cost(e, from, to);
  }
  [[nodiscard]] double mean_comm_cost(const dag::Edge& e) const override {
    return prior_.mean_comm_cost(e);
  }

 private:
  const CostProvider& prior_;
  const dag::Dag& dag_;
  const PerformanceHistoryRepository& history_;
};

}  // namespace aheft::grid

#endif  // AHEFT_GRID_PREDICTOR_H_
