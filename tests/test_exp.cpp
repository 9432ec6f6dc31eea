// Experiment-harness tests: case execution, determinism, sweep building,
// aggregation, CSV dumps.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "exp/case.h"
#include "exp/paper_params.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/sweeps.h"
#include "support/rng.h"
#include "traces/compiler.h"
#include "traces/trace_format.h"

namespace aheft::exp {
namespace {

CaseSpec small_spec(std::uint64_t seed) {
  CaseSpec spec;
  spec.app = AppKind::kRandom;
  spec.size = 25;
  spec.ccr = 1.0;
  spec.out_degree = 0.3;
  spec.beta = 0.5;
  spec.dynamics = {5, 150.0, 0.2};
  spec.seed = seed;
  return spec;
}

TEST(Case, AheftNeverWorseThanHeft) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const CaseResult result = run_case(small_spec(seed));
    EXPECT_GT(result.heft_makespan, 0.0);
    EXPECT_LE(result.aheft_makespan, result.heft_makespan + 1e-6)
        << "seed " << seed;
    EXPECT_EQ(result.jobs, 25u);
    EXPECT_GE(result.universe, 5u);
  }
}

TEST(Case, DeterministicAcrossRuns) {
  const CaseResult a = run_case(small_spec(42));
  const CaseResult b = run_case(small_spec(42));
  EXPECT_DOUBLE_EQ(a.heft_makespan, b.heft_makespan);
  EXPECT_DOUBLE_EQ(a.aheft_makespan, b.aheft_makespan);
  EXPECT_EQ(a.adoptions, b.adoptions);
}

TEST(Case, DynamicBaselineRunsWhenRequested) {
  CaseSpec spec = small_spec(7);
  spec.run_dynamic = true;
  spec.horizon_factor = 4.0;
  const CaseResult result = run_case(spec);
  EXPECT_GT(result.minmin_makespan, 0.0);

  CaseSpec no_dynamic = small_spec(7);
  const CaseResult without = run_case(no_dynamic);
  EXPECT_DOUBLE_EQ(without.minmin_makespan, 0.0);
}

TEST(Case, AppKindsAreRunnable) {
  for (const AppKind app :
       {AppKind::kBlast, AppKind::kWien2k, AppKind::kMontage,
        AppKind::kGaussian}) {
    CaseSpec spec = small_spec(11);
    spec.app = app;
    spec.size = 10;
    const CaseResult result = run_case(spec);
    EXPECT_GT(result.heft_makespan, 0.0) << to_string(app);
    EXPECT_LE(result.aheft_makespan, result.heft_makespan + 1e-6);
  }
}

TEST(Case, ToStringCoversAllApps) {
  EXPECT_EQ(to_string(AppKind::kRandom), "random");
  EXPECT_EQ(to_string(AppKind::kBlast), "blast");
  EXPECT_EQ(to_string(AppKind::kWien2k), "wien2k");
  EXPECT_EQ(to_string(AppKind::kMontage), "montage");
  EXPECT_EQ(to_string(AppKind::kGaussian), "gaussian");
}

TEST(Runner, ThreadCountDoesNotChangeResults) {
  std::vector<CaseSpec> specs;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    specs.push_back(small_spec(s));
  }
  const SweepOutcome serial = run_sweep(specs, 1);
  const SweepOutcome parallel = run_sweep(specs, 4);
  ASSERT_EQ(serial.results.size(), parallel.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.results[i].heft_makespan,
                     parallel.results[i].heft_makespan);
    EXPECT_DOUBLE_EQ(serial.results[i].aheft_makespan,
                     parallel.results[i].aheft_makespan);
  }
}

TEST(Report, GroupByAndOverall) {
  std::vector<CaseSpec> specs;
  for (const double ccr : {0.5, 5.0}) {
    for (std::uint64_t s = 1; s <= 3; ++s) {
      CaseSpec spec = small_spec(s);
      spec.ccr = ccr;
      specs.push_back(spec);
    }
  }
  const SweepOutcome outcome = run_sweep(specs, 2);
  const auto groups =
      group_by(outcome, [](const CaseSpec& s) { return s.ccr; });
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups.at(0.5).heft.count(), 3u);
  EXPECT_EQ(groups.at(5.0).aheft.count(), 3u);
  const GroupStats total = overall(outcome);
  EXPECT_EQ(total.heft.count(), 6u);
  // Improvement rate is consistent with the accumulated means.
  EXPECT_NEAR(total.improvement(),
              (total.heft.mean() - total.aheft.mean()) / total.heft.mean(),
              1e-12);
  EXPECT_GE(total.improvement(), -1e-9);
}

TEST(Report, DumpCsvWritesOneRowPerCase) {
  std::vector<CaseSpec> specs{small_spec(1), small_spec(2)};
  const SweepOutcome outcome = run_sweep(specs, 1);
  const std::string path = ::testing::TempDir() + "/sweep.csv";
  dump_csv(outcome, path);
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
  }
  EXPECT_EQ(lines, 3u);  // header + 2 cases
}

TEST(Sweeps, CaseSeedIsStableAndSensitive) {
  const CaseSpec a = small_spec(0);
  CaseSpec b = a;
  EXPECT_EQ(case_seed(1, a, 0), case_seed(1, b, 0));
  b.ccr = 2.0;
  EXPECT_NE(case_seed(1, a, 0), case_seed(1, b, 0));
  EXPECT_NE(case_seed(1, a, 0), case_seed(1, a, 1));
  EXPECT_NE(case_seed(1, a, 0), case_seed(2, a, 0));
  // Resource dynamics do NOT enter the seed: the same DAG instance is
  // paired with every resource model, as in the paper's design.
  CaseSpec c = a;
  c.dynamics = {40, 1600.0, 0.25};
  EXPECT_EQ(case_seed(1, a, 0), case_seed(1, c, 0));
}

TEST(Sweeps, CaseSeedIsPinnedToItsKeyText) {
  // Literal seeds: a change to the key text, its number formatting or the
  // hash would silently re-seed every published sweep.
  CaseSpec random;
  random.app = AppKind::kRandom;
  random.size = 25;
  random.ccr = 1.0;
  random.out_degree = 0.3;
  random.beta = 0.5;
  EXPECT_EQ(case_seed(42, random, 0), 17694314992606301583ull);
  CaseSpec blast;
  blast.app = AppKind::kBlast;
  blast.size = 200;
  blast.ccr = 0.1;
  blast.beta = 1.0;
  EXPECT_EQ(case_seed(7, blast, 1), 11722088095539604706ull);
  CaseSpec wien2k;
  wien2k.app = AppKind::kWien2k;
  wien2k.size = 1000;
  wien2k.ccr = 10.0;
  wien2k.beta = 0.25;
  EXPECT_EQ(case_seed(31337, wien2k, 3), 16577835146122592005ull);
}

/// case_seed as it stood when it formatted its key through std::ostream:
/// the reference the std::to_chars key must reproduce bit for bit.
std::uint64_t stream_case_seed(std::uint64_t master, const CaseSpec& spec,
                               std::size_t instance) {
  std::ostringstream key;
  key << to_string(spec.app) << '/' << spec.size << '/' << spec.ccr << '/'
      << spec.out_degree << '/' << spec.beta << '/' << instance;
  return mix64(master, hash64(key.str()));
}

TEST(Sweeps, CaseSeedMatchesTheStreamFormattedKey) {
  constexpr std::uint64_t kMaster = 42;
  std::size_t compared = 0;
  const auto check = [&](const std::vector<CaseSpec>& specs,
                         const std::string& label) {
    ASSERT_FALSE(specs.empty()) << label;
    for (std::size_t k = 0; k < specs.size(); ++k) {
      for (const std::size_t inst : {std::size_t{0}, std::size_t{3}}) {
        ASSERT_EQ(case_seed(kMaster, specs[k], inst),
                  stream_case_seed(kMaster, specs[k], inst))
            << label << " spec " << k << " instance " << inst;
        ++compared;
      }
    }
  };
  for (const Scale scale : {Scale::kSmoke, Scale::kDefault}) {
    const std::string name = to_string(scale);
    check(build_random_sweep(scale, kMaster, false), "random " + name);
    for (const AppKind app : {AppKind::kBlast, AppKind::kWien2k}) {
      check(build_app_sweep(app, scale, kMaster), to_string(app) + " " + name);
      for (const SweepAxis axis :
           {SweepAxis::kCcr, SweepAxis::kBeta, SweepAxis::kJobs,
            SweepAxis::kPool, SweepAxis::kInterval, SweepAxis::kFraction}) {
        check(build_fig8_sweep(app, axis, scale, kMaster),
              to_string(app) + " fig8 " + to_string(axis) + " " + name);
      }
    }
  }
  EXPECT_GT(compared, 1000u);
  // Values where %g switches to exponent form or rounds to 6 digits, and
  // the largest size and instance.
  CaseSpec spec;
  for (const double value :
       {1e-5, 1234567.0, 0.0001, 123456.0, 1.0 / 3.0, 2.5e-300, -0.75,
        1e21, 0.0}) {
    spec.ccr = value;
    spec.out_degree = value;
    spec.beta = value;
    EXPECT_EQ(case_seed(kMaster, spec, 1), stream_case_seed(kMaster, spec, 1))
        << value;
  }
  spec.size = std::numeric_limits<std::size_t>::max();
  const std::size_t last = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(case_seed(kMaster, spec, last),
            stream_case_seed(kMaster, spec, last));
}

TEST(Sweeps, EverySpecCarriesItsCaseSeed) {
  // The sweeps derive each workflow key's seeds once and hand them to
  // every resource model of that key; each spec must still carry exactly
  // case_seed(master, spec, inst), with the instance innermost.
  constexpr std::uint64_t kMaster = 42;
  auto check = [&](const std::vector<CaseSpec>& specs, std::size_t instances,
                   const std::string& label) {
    ASSERT_FALSE(specs.empty()) << label;
    for (std::size_t k = 0; k < specs.size(); ++k) {
      ASSERT_EQ(specs[k].seed, case_seed(kMaster, specs[k], k % instances))
          << label << " spec " << k;
    }
  };
  for (const Scale scale : {Scale::kSmoke, Scale::kDefault}) {
    const std::string name = to_string(scale);
    check(build_random_sweep(scale, kMaster, false), 1, "random " + name);
    check(build_random_sweep(scale, kMaster, true), 1,
          "random+dynamic " + name);
    for (const AppKind app : {AppKind::kBlast, AppKind::kWien2k}) {
      check(build_app_sweep(app, scale, kMaster),
            scale == Scale::kSmoke ? 1 : 2, to_string(app) + " " + name);
    }
  }
}

TEST(Sweeps, RandomSweepSizesPerScale) {
  const auto smoke = build_random_sweep(Scale::kSmoke, 1, false);
  EXPECT_EQ(smoke.size(), 2u * 2u * 1u * 1u * 1u * 1u * 1u);
  const auto def = build_random_sweep(Scale::kDefault, 1, false);
  EXPECT_EQ(def.size(), 625u * 3u * 2u * 2u);  // types x thinned models
  const auto paper = build_random_sweep(Scale::kPaper, 1, false);
  EXPECT_EQ(paper.size(), 500000u);  // the paper's case count
}

TEST(Sweeps, AppSweepCoversParallelismCcrAndPool) {
  const auto specs = build_app_sweep(AppKind::kBlast, Scale::kDefault, 1);
  EXPECT_EQ(specs.size(), 5u * 5u * 5u * 2u);  // N x CCR x R x instances
  bool seen_n1000 = false;
  for (const CaseSpec& spec : specs) {
    EXPECT_EQ(spec.app, AppKind::kBlast);
    seen_n1000 |= spec.size == 1000;
  }
  EXPECT_TRUE(seen_n1000);
  EXPECT_THROW(build_app_sweep(AppKind::kRandom, Scale::kDefault, 1),
               std::invalid_argument);
}

TEST(Sweeps, Fig8SweepVariesExactlyOneAxis) {
  for (const SweepAxis axis :
       {SweepAxis::kCcr, SweepAxis::kBeta, SweepAxis::kJobs, SweepAxis::kPool,
        SweepAxis::kInterval, SweepAxis::kFraction}) {
    const auto specs =
        build_fig8_sweep(AppKind::kWien2k, axis, Scale::kSmoke, 1);
    ASSERT_FALSE(specs.empty());
    std::set<double> values;
    for (const CaseSpec& spec : specs) {
      values.insert(axis_value(axis, spec));
      if (axis != SweepAxis::kCcr) {
        EXPECT_DOUBLE_EQ(spec.ccr, kBaseCcr);
      }
      if (axis != SweepAxis::kBeta) {
        EXPECT_DOUBLE_EQ(spec.beta, kBaseBeta);
      }
    }
    EXPECT_GE(values.size(), 4u) << to_string(axis);
  }
}

TEST(Sweeps, SeedsDifferAcrossWorkloadsButPairAcrossModels) {
  const auto specs = build_app_sweep(AppKind::kBlast, Scale::kDefault, 7);
  std::set<std::uint64_t> seeds;
  for (const CaseSpec& spec : specs) {
    seeds.insert(spec.seed);
  }
  // 5 N x 5 CCR x 2 instances distinct workloads, each paired with every
  // pool size (5), so distinct seeds = cases / pools.
  EXPECT_EQ(seeds.size(), specs.size() / 5u);
}

/// The model build_case_environment must produce: a fresh
/// build_machine_model over the environment's final universe.
void expect_fresh_model(const CaseSpec& spec, const CaseEnvironment& env) {
  const grid::MachineModel fresh = workloads::build_machine_model(
      env.workload, env.scenario.pool.universe_size(), spec.beta,
      mix64(spec.seed, hash64("costs")));
  ASSERT_EQ(env.model.job_count(), fresh.job_count());
  ASSERT_EQ(env.model.resource_count(), fresh.resource_count());
  for (dag::JobId i = 0; i < fresh.job_count(); ++i) {
    for (grid::ResourceId j = 0; j < fresh.resource_count(); ++j) {
      ASSERT_EQ(env.model.compute_cost(i, j), fresh.compute_cost(i, j))
          << spec.scenario_source << " job " << i << " resource " << j;
    }
  }
}

TEST(Case, EnvironmentModelEqualsAFreshModelOverTheFinalUniverse) {
  // Horizon-sensitive sources: pass 2 keeps pass 1's columns and draws
  // only the later arrivals' columns.
  for (const char* source : {"synthetic", "bursty"}) {
    for (const std::uint64_t seed : {3u, 11u}) {
      CaseSpec spec = small_spec(seed);
      spec.scenario_source = source;
      spec.bursty.failure_fraction = 0.3;
      spec.horizon_factor = 4.0;
      const CaseEnvironment env = build_case_environment(spec);
      EXPECT_GT(env.scenario.pool.universe_size(), spec.dynamics.initial)
          << source << ": no arrivals, so nothing was extended";
      expect_fresh_model(spec, env);
    }
  }
  // The trace source is horizon-insensitive: its pass-1 model is final.
  CaseSpec recorded = small_spec(5);
  recorded.horizon_factor = 4.0;
  const std::string path = ::testing::TempDir() + "case_model_replay.trace";
  traces::write_trace_file(
      path, traces::record_scenario(build_case_environment(recorded).scenario,
                                    "recorded"));
  CaseSpec replay = recorded;
  replay.scenario_source = "trace";
  replay.trace_path = path;
  const CaseEnvironment env = build_case_environment(replay);
  EXPECT_GT(env.scenario.pool.universe_size(), replay.dynamics.initial);
  expect_fresh_model(replay, env);
}

}  // namespace
}  // namespace aheft::exp
