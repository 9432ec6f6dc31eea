// Workload generator tests: random parametric DAGs, BLAST, WIEN2K,
// Montage, Gaussian elimination, and the grid scenario builder.
#include <gtest/gtest.h>

#include "dag/algorithms.h"
#include "support/rng.h"
#include "workloads/apps.h"
#include "workloads/random_dag.h"
#include "workloads/sample.h"
#include "workloads/scenario.h"
#include "workloads/workload.h"

namespace aheft::workloads {
namespace {

TEST(RandomDag, RespectsJobCountAndConnectivity) {
  RngStream rng(1);
  RandomDagParams params;
  params.jobs = 50;
  const Workload w = generate_random_workload(params, rng);
  EXPECT_EQ(w.dag.job_count(), 50u);
  EXPECT_EQ(w.base_cost.size(), 50u);
  // Single entry (node 0), and every other node has a predecessor.
  EXPECT_EQ(w.dag.entry_jobs(), (std::vector<dag::JobId>{0}));
  for (dag::JobId i = 1; i < 50; ++i) {
    EXPECT_FALSE(w.dag.predecessors(i).empty());
  }
}

TEST(RandomDag, RespectsOutDegreeCap) {
  RngStream rng(2);
  RandomDagParams params;
  params.jobs = 40;
  params.out_degree = 0.1;  // cap = 4
  const Workload w = generate_random_workload(params, rng);
  // The orphan-connection pass can add at most a handful above the cap.
  for (dag::JobId i = 0; i < 40; ++i) {
    EXPECT_LE(w.dag.successors(i).size(), 4u + 4u);
  }
}

TEST(RandomDag, IsDeterministicPerSeed) {
  RandomDagParams params;
  RngStream a(99);
  RngStream b(99);
  const Workload wa = generate_random_workload(params, a);
  const Workload wb = generate_random_workload(params, b);
  ASSERT_EQ(wa.dag.edge_count(), wb.dag.edge_count());
  for (std::size_t e = 0; e < wa.dag.edge_count(); ++e) {
    EXPECT_EQ(wa.dag.edges()[e].from, wb.dag.edges()[e].from);
    EXPECT_EQ(wa.dag.edges()[e].to, wb.dag.edges()[e].to);
    EXPECT_DOUBLE_EQ(wa.dag.edges()[e].data, wb.dag.edges()[e].data);
  }
  EXPECT_EQ(wa.base_cost, wb.base_cost);
}

TEST(RandomDag, CcrShapesCommunicationCosts) {
  RandomDagParams low;
  low.jobs = 60;
  low.ccr = 0.1;
  RandomDagParams high = low;
  high.ccr = 10.0;
  RngStream rng_low(5);
  RngStream rng_high(5);
  const Workload wl = generate_random_workload(low, rng_low);
  const Workload wh = generate_random_workload(high, rng_high);
  EXPECT_NEAR(realized_ccr(wl), 0.1, 0.08);
  EXPECT_NEAR(realized_ccr(wh), 10.0, 4.0);
}

TEST(RandomDag, BaseCostsArePositiveWithExpectedMean) {
  RngStream rng(6);
  RandomDagParams params;
  params.jobs = 100;
  params.avg_compute = 100.0;
  const Workload w = generate_random_workload(params, rng);
  for (const double c : w.base_cost) {
    EXPECT_GT(c, 0.0);
    EXPECT_LE(c, 200.0);
  }
  EXPECT_NEAR(mean_base_cost(w), 100.0, 25.0);
}

TEST(RandomDag, RejectsInvalidParameters) {
  RngStream rng(1);
  RandomDagParams bad;
  bad.jobs = 1;
  EXPECT_THROW(generate_random_workload(bad, rng), std::invalid_argument);
  bad = RandomDagParams{};
  bad.out_degree = 0.0;
  EXPECT_THROW(generate_random_workload(bad, rng), std::invalid_argument);
  bad = RandomDagParams{};
  bad.avg_compute = -1.0;
  EXPECT_THROW(generate_random_workload(bad, rng), std::invalid_argument);
}

TEST(Blast, HasPublishedShape) {
  RngStream rng(7);
  AppParams params;
  params.parallelism = 8;
  const Workload w = generate_blast(params, rng);
  // 2N + 2 jobs: split, N x (ID006 -> ID007), merge (paper Fig. 6).
  EXPECT_EQ(w.dag.job_count(), 18u);
  EXPECT_EQ(w.dag.entry_jobs().size(), 1u);
  EXPECT_EQ(w.dag.exit_jobs().size(), 1u);
  EXPECT_EQ(dag::max_parallelism(w.dag), 8u);
  EXPECT_EQ(dag::level_widths(w.dag),
            (std::vector<std::uint32_t>{1, 8, 8, 1}));
  // Four unique operations.
  EXPECT_EQ(w.dag.operations().size(), 4u);
}

TEST(Blast, InstancesOfAnOperationShareCosts) {
  RngStream rng(8);
  AppParams params;
  params.parallelism = 5;
  const Workload w = generate_blast(params, rng);
  // Jobs 1, 3, 5, ... are the ID006 stage: identical base cost.
  const double c = w.base_cost[1];
  for (std::size_t b = 0; b < 5; ++b) {
    EXPECT_DOUBLE_EQ(w.base_cost[1 + 2 * b], c);
  }
}

TEST(Wien2k, HasPublishedShape) {
  RngStream rng(9);
  AppParams params;
  params.parallelism = 6;
  const Workload w = generate_wien2k(params, rng);
  // 2N + 8 jobs (paper Fig. 7).
  EXPECT_EQ(w.dag.job_count(), 20u);
  EXPECT_EQ(w.dag.entry_jobs().size(), 1u);
  EXPECT_EQ(w.dag.exit_jobs().size(), 1u);
  // N LAPW1 jobs plus the bypassing LCore share a level.
  EXPECT_EQ(dag::max_parallelism(w.dag), 7u);

  // LAPW2_FERMI is the single job on its level, gating the LAPW2 section —
  // the structural bottleneck the paper blames for WIEN2K's small gains.
  dag::JobId fermi = dag::kInvalidJob;
  for (dag::JobId i = 0; i < w.dag.job_count(); ++i) {
    if (w.dag.job(i).operation == "LAPW2_FERMI") {
      fermi = i;
    }
  }
  ASSERT_NE(fermi, dag::kInvalidJob);
  EXPECT_EQ(w.dag.predecessors(fermi).size(), 6u);
  EXPECT_EQ(w.dag.successors(fermi).size(), 6u);
  const auto levels = dag::levels(w.dag);
  const auto widths = dag::level_widths(w.dag);
  EXPECT_EQ(widths[levels[fermi]], 1u);
}

TEST(Wien2k, LCoreBypassesTheParallelSections) {
  RngStream rng(10);
  AppParams params;
  params.parallelism = 3;
  const Workload w = generate_wien2k(params, rng);
  dag::JobId lcore = dag::kInvalidJob;
  dag::JobId mixer = dag::kInvalidJob;
  dag::JobId lapw0 = dag::kInvalidJob;
  for (dag::JobId i = 0; i < w.dag.job_count(); ++i) {
    if (w.dag.job(i).operation == "LCORE") lcore = i;
    if (w.dag.job(i).operation == "MIXER") mixer = i;
    if (w.dag.job(i).operation == "LAPW0") lapw0 = i;
  }
  ASSERT_NE(lcore, dag::kInvalidJob);
  EXPECT_EQ(w.dag.predecessors(lcore), (std::vector<dag::JobId>{lapw0}));
  EXPECT_EQ(w.dag.successors(lcore), (std::vector<dag::JobId>{mixer}));
}

TEST(Montage, HasExpectedShapeAndOperations) {
  RngStream rng(11);
  AppParams params;
  params.parallelism = 6;
  const Workload w = generate_montage(params, rng);
  // 3N + 5 jobs, 9 unique operations.
  EXPECT_EQ(w.dag.job_count(), 23u);
  EXPECT_EQ(w.dag.operations().size(), 9u);
  EXPECT_EQ(w.dag.entry_jobs().size(), 6u);  // the mProject stage
  EXPECT_EQ(w.dag.exit_jobs().size(), 1u);   // mJPEG
}

TEST(Gaussian, JobCountFollowsClosedForm) {
  RngStream rng(12);
  AppParams params;
  params.parallelism = 6;  // matrix dimension m
  const Workload w = generate_gaussian(params, rng);
  EXPECT_EQ(w.dag.job_count(), (6u * 6u + 6u - 2u) / 2u);  // 20
  EXPECT_EQ(w.dag.entry_jobs().size(), 1u);  // first pivot
}

TEST(Apps, ParallelismValidation) {
  RngStream rng(13);
  AppParams bad;
  bad.parallelism = 1;
  EXPECT_THROW(generate_montage(bad, rng), std::invalid_argument);
  EXPECT_THROW(generate_gaussian(bad, rng), std::invalid_argument);
}

TEST(Scenario, DynamicPoolAddsResourcesOnSchedule) {
  const ResourceDynamics dynamics{10, 400.0, 0.15};
  EXPECT_EQ(arrivals_per_change(dynamics), 2u);  // round(0.15 * 10)
  const grid::ResourcePool pool = build_dynamic_pool(dynamics, 1700.0);
  // Changes at 400, 800, 1200, 1600: 10 + 4 * 2 = 18 resources.
  EXPECT_EQ(pool.universe_size(), 18u);
  EXPECT_EQ(pool.count_available_at(0.0), 10u);
  EXPECT_EQ(pool.count_available_at(400.0), 12u);
  EXPECT_EQ(pool.count_available_at(1650.0), 18u);
  EXPECT_EQ(pool.change_times(0.0, 1e9),
            (std::vector<sim::Time>{400.0, 800.0, 1200.0, 1600.0}));
}

TEST(Scenario, AtLeastOneResourcePerChange) {
  const ResourceDynamics dynamics{4, 100.0, 0.01};  // round(0.04) = 0 -> 1
  EXPECT_EQ(arrivals_per_change(dynamics), 1u);
}

TEST(Scenario, MachineModelRespectsBetaLaw) {
  RngStream rng(14);
  RandomDagParams params;
  params.jobs = 30;
  const Workload w = generate_random_workload(params, rng);
  const double beta = 0.5;
  const grid::MachineModel model = build_machine_model(w, 8, beta, 42);
  for (dag::JobId i = 0; i < 30; ++i) {
    for (grid::ResourceId j = 0; j < 8; ++j) {
      const double cost = model.compute_cost(i, j);
      EXPECT_GE(cost, w.base_cost[i] * (1.0 - beta / 2.0) - 1e-9);
      EXPECT_LE(cost, w.base_cost[i] * (1.0 + beta / 2.0) + 1e-9);
    }
  }
}

TEST(Scenario, HomogeneousWhenBetaZero) {
  RngStream rng(15);
  RandomDagParams params;
  const Workload w = generate_random_workload(params, rng);
  const grid::MachineModel model = build_machine_model(w, 4, 0.0, 7);
  for (dag::JobId i = 0; i < w.dag.job_count(); ++i) {
    for (grid::ResourceId j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(model.compute_cost(i, j), w.base_cost[i]);
    }
  }
}

TEST(Scenario, UniverseExtensionKeepsExistingColumns) {
  RngStream rng(16);
  RandomDagParams params;
  params.jobs = 20;
  const Workload w = generate_random_workload(params, rng);
  const grid::MachineModel small = build_machine_model(w, 5, 0.75, 99);
  const grid::MachineModel large = build_machine_model(w, 12, 0.75, 99);
  for (dag::JobId i = 0; i < 20; ++i) {
    for (grid::ResourceId j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(small.compute_cost(i, j), large.compute_cost(i, j));
    }
  }
}

TEST(Scenario, ExtendMachineModelEqualsAFreshBuild) {
  RngStream rng(18);
  RandomDagParams params;
  params.jobs = 20;
  const Workload w = generate_random_workload(params, rng);
  const grid::MachineModel base = build_machine_model(w, 5, 0.75, 99);
  for (const std::size_t universe : {3u, 5u, 12u}) {
    const grid::MachineModel extended =
        extend_machine_model(base, w, universe, 0.75, 99);
    const grid::MachineModel fresh = build_machine_model(w, universe, 0.75, 99);
    ASSERT_EQ(extended.resource_count(), universe);
    for (dag::JobId i = 0; i < 20; ++i) {
      for (grid::ResourceId j = 0; j < universe; ++j) {
        EXPECT_EQ(extended.compute_cost(i, j), fresh.compute_cost(i, j))
            << "universe " << universe << " job " << i << " resource " << j;
      }
    }
  }
}

TEST(Scenario, RejectsInvalidBetaAndEmptyUniverse) {
  RngStream rng(17);
  RandomDagParams params;
  const Workload w = generate_random_workload(params, rng);
  EXPECT_THROW(build_machine_model(w, 4, 2.0, 1), std::invalid_argument);
  EXPECT_THROW(build_machine_model(w, 0, 0.5, 1), std::invalid_argument);
}

TEST(Sample, MatchesThePaperTable) {
  const SampleScenario scenario = sample_scenario(15.0);
  EXPECT_DOUBLE_EQ(scenario.model.compute_cost(0, 2), 9.0);   // n1 on r3
  EXPECT_DOUBLE_EQ(scenario.model.compute_cost(7, 0), 5.0);   // n8 on r1
  EXPECT_DOUBLE_EQ(scenario.model.compute_cost(9, 1), 7.0);   // n10 on r2
  EXPECT_DOUBLE_EQ(scenario.model.compute_cost(4, 3), 14.0);  // n5 on r4
  EXPECT_DOUBLE_EQ(scenario.dag.data(0, 1), 18.0);
  EXPECT_DOUBLE_EQ(scenario.dag.data(8, 9), 13.0);
  EXPECT_DOUBLE_EQ(scenario.pool.resource(3).arrival, 15.0);
}

}  // namespace
}  // namespace aheft::workloads
