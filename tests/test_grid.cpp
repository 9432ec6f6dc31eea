// Unit tests for the grid substrate: pool, machine model, predictors,
// history repository.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dag/dag.h"
#include "support/assert.h"
#include "grid/history.h"
#include "grid/machine_model.h"
#include "grid/predictor.h"
#include "grid/resource_pool.h"
#include "support/rng.h"

namespace aheft::grid {
namespace {

ResourcePool small_pool() {
  ResourcePool pool;
  pool.add(Resource{.name = "r1", .arrival = 0.0});
  pool.add(Resource{.name = "r2", .arrival = 0.0});
  pool.add(Resource{.name = "r3", .arrival = 15.0});
  pool.add(Resource{.name = "r4", .arrival = 30.0});
  return pool;
}

TEST(ResourcePool, AvailabilityFollowsArrivals) {
  const ResourcePool pool = small_pool();
  EXPECT_EQ(pool.universe_size(), 4u);
  EXPECT_EQ(pool.available_at(0.0), (std::vector<ResourceId>{0, 1}));
  EXPECT_EQ(pool.available_at(15.0), (std::vector<ResourceId>{0, 1, 2}));
  EXPECT_EQ(pool.available_at(100.0), (std::vector<ResourceId>{0, 1, 2, 3}));
  EXPECT_EQ(pool.count_available_at(20.0), 3u);
}

TEST(ResourcePool, ChangeTimesAreSortedAndDeduplicated) {
  ResourcePool pool = small_pool();
  pool.add(Resource{.name = "r5", .arrival = 30.0});  // duplicate time
  EXPECT_EQ(pool.change_times(0.0, 100.0),
            (std::vector<sim::Time>{15.0, 30.0}));
  EXPECT_EQ(pool.change_times(15.0, 100.0), (std::vector<sim::Time>{30.0}));
  EXPECT_DOUBLE_EQ(pool.next_change_after(0.0), 15.0);
  EXPECT_DOUBLE_EQ(pool.next_change_after(15.0), 30.0);
  EXPECT_EQ(pool.next_change_after(30.0), sim::kTimeInfinity);
}

TEST(ResourcePool, ArrivalsAtExactTime) {
  const ResourcePool pool = small_pool();
  EXPECT_EQ(pool.arrivals_at(15.0), (std::vector<ResourceId>{2}));
  EXPECT_TRUE(pool.arrivals_at(16.0).empty());
}

TEST(ResourcePool, DeparturesRestrictAvailability) {
  ResourcePool pool = small_pool();
  pool.set_departure(0, 50.0);
  EXPECT_EQ(pool.available_at(60.0), (std::vector<ResourceId>{1, 2, 3}));
  EXPECT_EQ(pool.change_times(40.0, 100.0), (std::vector<sim::Time>{50.0}));
  EXPECT_THROW(pool.set_departure(2, 10.0), std::invalid_argument);
}

TEST(ResourcePool, NamesAreGeneratedWhenEmpty) {
  ResourcePool pool;
  pool.add(Resource{});
  EXPECT_EQ(pool.resource(0).name, "r1");
}

TEST(MachineModel, StoresCostsAndComputesComm) {
  MachineModel model(2, 2, LinkModel{.latency = 1.0, .bandwidth = 2.0});
  model.set_compute_cost(0, 0, 10.0);
  model.set_compute_cost(0, 1, 20.0);
  model.set_compute_cost(1, 0, 5.0);
  model.set_compute_cost(1, 1, 5.0);
  EXPECT_DOUBLE_EQ(model.compute_cost(0, 1), 20.0);

  const dag::Edge edge{0, 1, 8.0};
  EXPECT_DOUBLE_EQ(model.comm_cost(edge, 0, 0), 0.0);  // same resource
  EXPECT_DOUBLE_EQ(model.comm_cost(edge, 0, 1), 1.0 + 8.0 / 2.0);
  EXPECT_DOUBLE_EQ(model.mean_comm_cost(edge), 5.0);

  const std::vector<ResourceId> both{0, 1};
  EXPECT_DOUBLE_EQ(model.mean_compute_cost(0, both), 15.0);
}

TEST(MachineModel, RejectsInvalidConstructionAndAccess) {
  EXPECT_THROW(MachineModel(0, 1), std::invalid_argument);
  EXPECT_THROW(MachineModel(1, 1, LinkModel{.latency = -1.0, .bandwidth = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(MachineModel(1, 1, LinkModel{.latency = 0.0, .bandwidth = 0.0}),
               std::invalid_argument);
  MachineModel model(1, 1);
  EXPECT_THROW(model.set_compute_cost(0, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(model.set_compute_cost(1, 0, 1.0), std::invalid_argument);
  model.set_compute_cost(0, 0, 2.0);
  EXPECT_THROW((void)model.compute_cost(0, 3), std::invalid_argument);
}

TEST(MachineModel, UnsetCostIsAnInvariantViolation) {
  MachineModel model(1, 2);
  model.set_compute_cost(0, 0, 2.0);
  EXPECT_THROW((void)model.compute_cost(0, 1), AssertionError);
}

// The row-sum override must add the same cells in the same order as the
// base class's one-virtual-call-per-resource loop, so ranks stay
// bit-identical: visible sets come in any order, with repeats, and the
// costs span several orders of magnitude so a reordered sum would show.
TEST(MachineModel, MeanComputeCostIsTheBaseClassSumBitForBit) {
  RngStream rng(2718);
  MachineModel model(8, 12);
  for (dag::JobId i = 0; i < 8; ++i) {
    for (ResourceId r = 0; r < 12; ++r) {
      model.set_compute_cost(i, r, std::exp(rng.uniform(-6.0, 9.0)));
    }
  }
  const CostProvider& base = model;
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<ResourceId> visible(1 + rng.index(16));
    for (ResourceId& r : visible) {
      r = static_cast<ResourceId>(rng.index(12));
    }
    const auto job = static_cast<dag::JobId>(rng.index(8));
    const auto bits = [](double value) {
      return std::bit_cast<std::uint64_t>(value);
    };
    const double reference =
        base.CostProvider::mean_compute_cost(job, visible);
    EXPECT_EQ(bits(model.mean_compute_cost(job, visible)), bits(reference));
  }
}

TEST(MachineModel, MeanComputeCostKeepsThePerCellChecks) {
  MachineModel model(2, 3);
  model.set_compute_cost(0, 0, 2.0);
  model.set_compute_cost(0, 1, 4.0);
  const std::vector<ResourceId> none;
  const std::vector<ResourceId> out_of_range{0, 3};
  const std::vector<ResourceId> unset{1, 2};
  const std::vector<ResourceId> set{0, 1};
  EXPECT_THROW((void)model.mean_compute_cost(0, none), std::invalid_argument);
  EXPECT_THROW((void)model.mean_compute_cost(0, out_of_range),
               std::invalid_argument);
  EXPECT_THROW((void)model.mean_compute_cost(2, set), std::invalid_argument);
  EXPECT_THROW((void)model.mean_compute_cost(0, unset), AssertionError);
  EXPECT_THROW((void)model.mean_compute_cost(1, set), AssertionError);
  EXPECT_DOUBLE_EQ(model.mean_compute_cost(0, set), 3.0);
}

// compute_costs must give what one compute_cost per resource gives, in
// order, with the same checks: the EFT search fetches a job's row through
// it.
TEST(MachineModel, ComputeCostsIsTheBaseClassLoopBitForBit) {
  RngStream rng(31337);
  MachineModel model(6, 9);
  for (dag::JobId i = 0; i < 6; ++i) {
    for (ResourceId r = 0; r < 9; ++r) {
      model.set_compute_cost(i, r, std::exp(rng.uniform(-6.0, 9.0)));
    }
  }
  const NoisyPredictor noisy(model, 0.2, 5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<ResourceId> visible(rng.index(12));
    for (ResourceId& r : visible) {
      r = static_cast<ResourceId>(rng.index(9));
    }
    const auto job = static_cast<dag::JobId>(rng.index(6));
    for (const CostProvider* costs :
         {static_cast<const CostProvider*>(&model),
          static_cast<const CostProvider*>(&noisy)}) {
      std::vector<double> row(visible.size());
      costs->compute_costs(job, visible, row);
      for (std::size_t k = 0; k < visible.size(); ++k) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(row[k]),
                  std::bit_cast<std::uint64_t>(
                      costs->compute_cost(job, visible[k])));
      }
    }
  }

  MachineModel partial(2, 3);
  partial.set_compute_cost(0, 0, 2.0);
  const std::vector<ResourceId> out_of_range{0, 3};
  const std::vector<ResourceId> unset{0, 1};
  std::vector<double> two(2);
  std::vector<double> one(1);
  EXPECT_THROW(partial.compute_costs(0, out_of_range, two),
               std::invalid_argument);
  EXPECT_THROW(partial.compute_costs(2, unset, two), std::invalid_argument);
  EXPECT_THROW(partial.compute_costs(0, unset, one), std::invalid_argument);
  EXPECT_THROW(partial.compute_costs(0, unset, two), AssertionError);
}

// The uniform-link contract of CostProvider, which the EFT search prices
// each in-edge by: a transfer costs 0 on one machine and exactly
// mean_comm_cost between any two distinct ones, for the model and every
// predictor over it.
TEST(CostProvider, LinksAreUniformForTheModelAndEveryPredictor) {
  RngStream rng(4242);
  dag::Dag graph;
  graph.add_job("j0", "op");
  graph.add_job("j1", "op");
  graph.finalize();
  const PerformanceHistoryRepository history;
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  for (int trial = 0; trial < 50; ++trial) {
    const LinkModel link{.latency = rng.bernoulli(0.3)
                                        ? 0.0
                                        : std::exp(rng.uniform(-4.0, 4.0)),
                         .bandwidth = std::exp(rng.uniform(-5.0, 5.0))};
    const ResourceId machines = 2 + static_cast<ResourceId>(rng.index(6));
    MachineModel model(2, machines, link);
    const NoisyPredictor noisy(model, 0.3, 17);
    const HistoryBlendingPredictor blending(model, graph, history);
    for (int k = 0; k < 10; ++k) {
      const dag::Edge edge{0, 1,
                           rng.bernoulli(0.1)
                               ? 0.0
                               : std::exp(rng.uniform(-8.0, 12.0))};
      for (const CostProvider* costs :
           {static_cast<const CostProvider*>(&model),
            static_cast<const CostProvider*>(&noisy),
            static_cast<const CostProvider*>(&blending)}) {
        const double mean = costs->mean_comm_cost(edge);
        EXPECT_GE(mean, 0.0);
        for (ResourceId a = 0; a < machines; ++a) {
          for (ResourceId b = 0; b < machines; ++b) {
            const double c = costs->comm_cost(edge, a, b);
            EXPECT_EQ(bits(c), bits(a == b ? 0.0 : mean))
                << "latency " << link.latency << " bandwidth "
                << link.bandwidth << " data " << edge.data;
          }
        }
      }
    }
  }
}

TEST(Predictor, NoisyIsDeterministicAndBounded) {
  MachineModel model(3, 3);
  for (dag::JobId i = 0; i < 3; ++i) {
    for (ResourceId j = 0; j < 3; ++j) {
      model.set_compute_cost(i, j, 100.0);
    }
  }
  const NoisyPredictor noisy(model, 0.3, 99);
  bool any_different = false;
  for (dag::JobId i = 0; i < 3; ++i) {
    for (ResourceId j = 0; j < 3; ++j) {
      const double estimate = noisy.compute_cost(i, j);
      EXPECT_DOUBLE_EQ(estimate, noisy.compute_cost(i, j));  // repeatable
      EXPECT_GE(estimate, 70.0);
      EXPECT_LE(estimate, 130.0);
      any_different |= estimate != 100.0;
    }
  }
  EXPECT_TRUE(any_different);
  EXPECT_THROW(NoisyPredictor(model, 1.5, 1), std::invalid_argument);
}

TEST(History, SmoothsObservations) {
  PerformanceHistoryRepository history(0.5);
  EXPECT_FALSE(history.estimate("op", 0).has_value());
  history.record("op", 0, 100.0);
  EXPECT_DOUBLE_EQ(*history.estimate("op", 0), 100.0);
  history.record("op", 0, 50.0);
  EXPECT_DOUBLE_EQ(*history.estimate("op", 0), 75.0);
  EXPECT_EQ(history.observations("op", 0), 2u);
  EXPECT_EQ(history.observations("op", 1), 0u);
  EXPECT_EQ(history.total_observations(), 2u);
  history.clear();
  EXPECT_EQ(history.total_observations(), 0u);
}

TEST(History, DistinguishesOperationAndResource) {
  PerformanceHistoryRepository history;
  history.record("a", 0, 10.0);
  history.record("a", 1, 20.0);
  history.record("b", 0, 30.0);
  EXPECT_DOUBLE_EQ(*history.estimate("a", 0), 10.0);
  EXPECT_DOUBLE_EQ(*history.estimate("a", 1), 20.0);
  EXPECT_DOUBLE_EQ(*history.estimate("b", 0), 30.0);
}

TEST(History, SnapshotIsInOperationThenResourceOrder) {
  PerformanceHistoryRepository history(0.5);
  // Scrambled across three resources, with names whose string order
  // (j1 < j10 < j2) differs from their numeric order.
  history.record("j2", 2, 1.0);
  history.record("j10", 0, 2.0);
  history.record("j1", 1, 3.0);
  history.record("j2", 0, 4.0);
  history.record("j10", 2, 5.0);
  history.record("j1", 2, 6.0);
  history.record("j2", 2, 7.0);
  history.record("j1", 0, 8.0);
  const std::vector<PerformanceHistoryRepository::Observation> snapshot =
      history.snapshot();
  const std::vector<std::pair<std::string, ResourceId>> expected = {
      {"j1", 0}, {"j1", 1}, {"j1", 2}, {"j10", 0},
      {"j10", 2}, {"j2", 0}, {"j2", 2}};
  ASSERT_EQ(snapshot.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(snapshot[i].operation, expected[i].first);
    EXPECT_EQ(snapshot[i].resource, expected[i].second);
  }
  // ("j2", 2) saw 1 then 7: count 2, EWMA 0.5 * 7 + 0.5 * 1.
  EXPECT_EQ(snapshot.back().count, 2u);
  EXPECT_DOUBLE_EQ(snapshot.back().smoothed, 4.0);
}

TEST(History, DeltaSeedsFromBaseAndFallsThroughAfterDrain) {
  PerformanceHistoryRepository base(0.5);
  base.record("op", 3, 100.0);
  double clock = 7.0;
  HistoryDelta delta(base, [&clock] { return clock; });
  // Untouched keys read the base.
  EXPECT_DOUBLE_EQ(*delta.estimate("op", 3), 100.0);
  EXPECT_FALSE(delta.estimate("op", 1).has_value());
  // The first delta-local record continues the base EWMA and count.
  delta.record("op", 3, 50.0);
  EXPECT_DOUBLE_EQ(*delta.estimate("op", 3), 75.0);
  EXPECT_EQ(delta.observations("op", 3), 2u);
  // A key the base never saw starts from the observation itself.
  delta.record("op", 1, 10.0);
  EXPECT_DOUBLE_EQ(*delta.estimate("op", 1), 10.0);
  // The base is untouched until the pending records are replayed.
  EXPECT_DOUBLE_EQ(*base.estimate("op", 3), 100.0);
  EXPECT_EQ(base.total_observations(), 1u);

  const std::vector<PendingObservation> pending = delta.take_pending();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].resource, 3u);
  EXPECT_EQ(pending[0].seq, 0u);
  EXPECT_DOUBLE_EQ(pending[0].stamp, 7.0);
  EXPECT_EQ(pending[1].operation, "op");
  EXPECT_EQ(pending[1].resource, 1u);
  // The drained overlay is reset: reads fall through to the base again,
  // which has not absorbed the records yet.
  EXPECT_DOUBLE_EQ(*delta.estimate("op", 3), 100.0);
  EXPECT_EQ(delta.observations("op", 3), 1u);
  EXPECT_FALSE(delta.estimate("op", 1).has_value());
  EXPECT_TRUE(delta.take_pending().empty());
  // Replaying into the base is what the reset overlay now serves.
  for (const PendingObservation& observation : pending) {
    base.record(observation.operation, observation.resource,
                observation.duration);
  }
  EXPECT_DOUBLE_EQ(*delta.estimate("op", 3), 75.0);
  EXPECT_DOUBLE_EQ(*delta.estimate("op", 1), 10.0);
  // A fresh epoch seeds from the updated base.
  clock = 9.0;
  delta.record("op", 3, 25.0);
  EXPECT_DOUBLE_EQ(*delta.estimate("op", 3), 50.0);
  EXPECT_EQ(delta.observations("op", 3), 3u);
  const std::vector<PendingObservation> next = delta.take_pending();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].seq, 2u);
  EXPECT_DOUBLE_EQ(next[0].stamp, 9.0);
}

TEST(Predictor, HistoryBlendingPrefersObservations) {
  dag::Dag graph;
  graph.add_job("j1", "opA");
  graph.add_job("j2", "opA");
  graph.finalize();
  MachineModel prior(2, 1);
  prior.set_compute_cost(0, 0, 100.0);
  prior.set_compute_cost(1, 0, 100.0);
  PerformanceHistoryRepository history(1.0);
  const HistoryBlendingPredictor predictor(prior, graph, history);
  EXPECT_DOUBLE_EQ(predictor.compute_cost(0, 0), 100.0);  // prior
  history.record("opA", 0, 42.0);
  // Both jobs share the operation, so one observation fixes both.
  EXPECT_DOUBLE_EQ(predictor.compute_cost(0, 0), 42.0);
  EXPECT_DOUBLE_EQ(predictor.compute_cost(1, 0), 42.0);
}

}  // namespace
}  // namespace aheft::grid
