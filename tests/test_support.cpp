// Unit tests for the support layer: RNG, stats, tables, CSV, env, pool.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <numbers>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/assert.h"
#include "support/csv.h"
#include "support/env.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace aheft {
namespace {

// ----- assert ------------------------------------------------------------

TEST(Assert, ThrowsAssertionErrorWithContext) {
  try {
    AHEFT_ASSERT(1 == 2, "one is not two");
    FAIL() << "expected AssertionError";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"),
              std::string::npos);
  }
}

TEST(Assert, RequireThrowsInvalidArgument) {
  EXPECT_THROW(AHEFT_REQUIRE(false, "bad arg"), std::invalid_argument);
}

// ----- rng ---------------------------------------------------------------

TEST(Rng, SameSeedSameSequence) {
  RngStream a(42);
  RngStream b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  RngStream a(1);
  RngStream b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ChildStreamsAreIndependentOfParentDraws) {
  RngStream parent(7);
  const RngStream child_before = parent.child("x");
  parent.next_u64();
  parent.next_u64();
  const RngStream child_after = parent.child("x");
  EXPECT_EQ(child_before.seed(), child_after.seed());
}

TEST(Rng, ChildTagsProduceDistinctStreams) {
  RngStream parent(7);
  EXPECT_NE(parent.child("a").seed(), parent.child("b").seed());
  EXPECT_NE(parent.child(1).seed(), parent.child(2).seed());
}

TEST(Rng, UniformRespectsBounds) {
  RngStream rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.5, 7.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 7.5);
  }
}

TEST(Rng, FirstUniformIsTheStreamsFirstDrawBitForBit) {
  // Sequential seeds, SplitMix64-scattered seeds and both extremes, over
  // the cost-cell ranges (beta 0, 0.5, 1.5), a signed range and lo == hi.
  std::vector<std::uint64_t> seeds{0, 1, ~std::uint64_t{0}};
  SplitMix64 scatter(2024);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    seeds.push_back(i);
    seeds.push_back(scatter.next());
  }
  ASSERT_GE(seeds.size(), 10000u);
  const std::pair<double, double> ranges[] = {
      {1.0, 1.0}, {0.75, 1.25}, {0.25, 1.75}, {-3.0, 7.25}, {5.5, 5.5}};
  for (const std::uint64_t seed : seeds) {
    for (const auto& [lo, hi] : ranges) {
      const double direct = first_uniform(seed, lo, hi);
      const double streamed = RngStream(seed).uniform(lo, hi);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(direct),
                std::bit_cast<std::uint64_t>(streamed))
          << "seed " << seed << " range [" << lo << ", " << hi << ")";
    }
  }
  EXPECT_THROW((void)first_uniform(1, 2.0, 1.0), std::invalid_argument);
}

TEST(Rng, Uniform01MeanIsAboutHalf) {
  RngStream rng(11);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    total += rng.uniform01();
  }
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  RngStream rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.uniform_int(1, 6);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 6);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformIntRejectsBadRange) {
  RngStream rng(5);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, IndexStaysBelowBound) {
  RngStream rng(5);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(rng.index(7), 7u);
  }
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, NormalMeanAndSpread) {
  RngStream rng(13);
  double total = 0.0;
  double total_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    total += x;
    total_sq += x * x;
  }
  const double mean = total / n;
  const double var = total_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  RngStream rng(17);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    total += rng.exponential(4.0);
  }
  EXPECT_NEAR(total / n, 4.0, 0.2);
}

TEST(Rng, ShuffleIsAPermutation) {
  RngStream rng(19);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = items;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Rng, Hash64IsStableAndSpread) {
  EXPECT_EQ(hash64("abc"), hash64("abc"));
  EXPECT_NE(hash64("abc"), hash64("abd"));
  EXPECT_NE(hash64(""), hash64("a"));
}

// ----- stats ---------------------------------------------------------------

TEST(Stats, MeanVarianceMinMax) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, MergeMatchesSequential) {
  OnlineStats all;
  OnlineStats left;
  OnlineStats right;
  RngStream rng(23);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0, 100);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
}

TEST(Stats, MergeWithEmpty) {
  OnlineStats a;
  OnlineStats b;
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(Stats, ImprovementRate) {
  EXPECT_NEAR(improvement_rate(4939.3, 3933.1), 0.2037, 1e-3);
  EXPECT_DOUBLE_EQ(improvement_rate(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(improvement_rate(10.0, 12.0), -0.2);
}

TEST(Stats, JainFairnessIndexOnKnownVectors) {
  // Perfect equality — index 1 regardless of the common value.
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({7.5, 7.5}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({42.0}), 1.0);
  // One of n served: index 1/n.
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 0.0, 0.0, 0.0}), 0.25);
  // {1, 3}: (1+3)^2 / (2 * (1+9)) = 0.8.
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 3.0}), 0.8);
  // {4, 2, 2}: 64 / (3 * 24).
  EXPECT_DOUBLE_EQ(jain_fairness_index({4.0, 2.0, 2.0}), 64.0 / 72.0);
  // Scale invariance.
  EXPECT_DOUBLE_EQ(jain_fairness_index({10.0, 30.0}),
                   jain_fairness_index({1.0, 3.0}));
  // Degenerate inputs count as perfectly fair.
  EXPECT_DOUBLE_EQ(jain_fairness_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0.0, 0.0}), 1.0);
}

TEST(Stats, NormalCdfOnKnownValues) {
  EXPECT_DOUBLE_EQ(normal_cdf(0.0), 0.5);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(-1.96), 0.024997895148220435, 1e-12);
  EXPECT_NEAR(normal_cdf(6.0), 1.0, 1e-9);
}

TEST(Stats, LogNormalAndWeibullClosedForms) {
  const LogNormalParams ln{1.0, 0.5};
  // CDF at the median exp(mu) is exactly one half.
  EXPECT_DOUBLE_EQ(ln.cdf(std::exp(1.0)), 0.5);
  EXPECT_DOUBLE_EQ(ln.quantile_from_normal(0.0), std::exp(1.0));
  EXPECT_NEAR(ln.mean(), std::exp(1.0 + 0.25 / 2.0), 1e-12);

  const WeibullParams wb{2.0, 3.0};
  // CDF at the scale is 1 - 1/e for every shape.
  EXPECT_NEAR(wb.cdf(3.0), 1.0 - std::exp(-1.0), 1e-12);
  // quantile is the exact inverse of cdf.
  for (const double u : {0.05, 0.5, 0.95}) {
    EXPECT_NEAR(wb.cdf(wb.quantile(u)), u, 1e-12);
  }
}

TEST(Stats, FitLogNormalRecoversParameters) {
  RngStream rng(42);
  std::vector<double> sample;
  sample.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    sample.push_back(rng.log_normal(2.0, 0.75));
  }
  const LogNormalParams fitted = fit_log_normal(sample);
  EXPECT_NEAR(fitted.mu, 2.0, 0.02);
  EXPECT_NEAR(fitted.sigma, 0.75, 0.02);
  // MLE on a log-normal sample beats the Weibull alternative in KS.
  const WeibullParams wrong = fit_weibull(sample);
  const double ks_right = ks_distance(
      sample, [&](double x) { return fitted.cdf(x); });
  const double ks_wrong = ks_distance(
      sample, [&](double x) { return wrong.cdf(x); });
  EXPECT_LT(ks_right, ks_wrong);
}

TEST(Stats, FitWeibullRecoversParameters) {
  RngStream rng(7);
  std::vector<double> sample;
  sample.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    sample.push_back(rng.weibull(1.6, 300.0));
  }
  const WeibullParams fitted = fit_weibull(sample);
  EXPECT_NEAR(fitted.shape, 1.6, 0.03);
  EXPECT_NEAR(fitted.scale, 300.0, 5.0);
}

TEST(Stats, FittersRejectNonPositiveSamples) {
  EXPECT_THROW((void)fit_log_normal({}), std::invalid_argument);
  EXPECT_THROW((void)fit_log_normal({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)fit_weibull({1.0, -2.0}), std::invalid_argument);
}

TEST(Stats, EmpiricalQuantileMatchesR) {
  // R's default (type 7) on 1..5: quantile(x, .25) = 2, .5 = 3, .1 = 1.4.
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(empirical_quantile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(empirical_quantile(sorted, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(empirical_quantile(sorted, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(empirical_quantile(sorted, 1.0), 5.0);
  EXPECT_NEAR(empirical_quantile(sorted, 0.1), 1.4, 1e-12);
}

TEST(Stats, KsDistanceOnKnownVectors) {
  // Sample {0.25, 0.75} vs U(0,1): sup gap is 0.25 at both points.
  const double d = ks_distance({0.25, 0.75}, [](double x) { return x; });
  EXPECT_DOUBLE_EQ(d, 0.25);
  // Identical two-sample inputs: distance 0; disjoint ones: distance 1.
  EXPECT_DOUBLE_EQ(ks_distance({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}), 0.0);
  EXPECT_DOUBLE_EQ(ks_distance({1.0, 2.0}, {10.0, 20.0}), 1.0);
  // Known partial overlap: {1,2} vs {2,3} -> sup |F1 - F2| = 1/2 at 1.
  EXPECT_DOUBLE_EQ(ks_distance({1.0, 2.0}, {2.0, 3.0}), 0.5);
}

TEST(Rng, LogNormalWeibullGeometricMoments) {
  RngStream rng(11);
  double ln_sum = 0.0;
  double wb_sum = 0.0;
  double geo_sum = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    ln_sum += rng.log_normal(0.0, 0.5);
    wb_sum += rng.weibull(2.0, 1.0);
    geo_sum += static_cast<double>(rng.geometric(0.25));
  }
  EXPECT_NEAR(ln_sum / n, std::exp(0.125), 0.02);        // exp(sigma^2/2)
  EXPECT_NEAR(wb_sum / n, std::sqrt(std::numbers::pi) / 2.0,
              0.01);                                     // Gamma(1.5)
  EXPECT_NEAR(geo_sum / n, 4.0, 0.05);                   // 1/p
  EXPECT_EQ(RngStream(3).geometric(1.0), 1u);
  EXPECT_THROW((void)RngStream(3).geometric(0.0), std::invalid_argument);
}

// ----- table ---------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  AsciiTable table({"name", "value"});
  table.add_row({"alpha", "1.5"});
  table.add_row({"b", "22.25"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| name  |"), std::string::npos);
  EXPECT_NE(out.find("  1.5 |"), std::string::npos);  // right-aligned number
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  AsciiTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(4075.0, 0), "4075");
  EXPECT_EQ(format_percent(0.204, 1), "20.4%");
}

// ----- csv -----------------------------------------------------------------

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/aheft_test.csv";
  {
    CsvWriter csv(path, {"x", "y"});
    csv.write_row({"1", "2"});
    EXPECT_THROW(csv.write_row({"only"}), std::invalid_argument);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
}

// ----- env -----------------------------------------------------------------

TEST(Env, ScaleRoundTrip) {
  EXPECT_EQ(parse_scale("smoke"), Scale::kSmoke);
  EXPECT_EQ(parse_scale("default"), Scale::kDefault);
  EXPECT_EQ(parse_scale("paper"), Scale::kPaper);
  EXPECT_EQ(parse_scale("full"), Scale::kPaper);
  EXPECT_FALSE(parse_scale("bogus").has_value());
  EXPECT_EQ(to_string(Scale::kPaper), "paper");
}

TEST(Env, ArgParserParsesTheFlagsItIsGiven) {
  const char* argv[] = {"prog", "--scale=smoke", "--jobs=40", "--flag"};
  const ArgParser args(4, argv, {"scale", "jobs", "flag", "missing", "ccr"});
  EXPECT_EQ(args.scale(), Scale::kSmoke);
  EXPECT_EQ(parse_count(args, "jobs", 0, 100), 40u);
  EXPECT_EQ(parse_count(args, "missing", 7, 100), 7u);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(parse_real(args, "ccr", 1.5, 0.0, 10.0), 1.5);
}

TEST(Env, ArgParserRefusesWhatTheProgramDoesNotRead) {
  const char* unknown[] = {"prog", "--seed=3", "--bogus=1"};
  EXPECT_EXIT(ArgParser(3, unknown, {"seed"}), ::testing::ExitedWithCode(2),
              "unknown flag '--bogus=1' \\(accepted: --seed\\)");
  const char* positional[] = {"prog", "extra"};
  EXPECT_EXIT(ArgParser(2, positional, {"seed"}),
              ::testing::ExitedWithCode(2), "unexpected argument 'extra'");
  const char* bare[] = {"prog", "--"};
  EXPECT_EXIT(ArgParser(2, bare, {"seed"}), ::testing::ExitedWithCode(2),
              "unknown flag '--'");
  const char* any[] = {"prog", "--seed"};
  EXPECT_EXIT(ArgParser(2, any, {}), ::testing::ExitedWithCode(2),
              "unknown flag '--seed' \\(accepted: none\\)");
}

TEST(Env, ParseDigitsTakesOnlyWholeUnsignedNumbers) {
  EXPECT_EQ(parse_digits("0"), std::optional<std::uint64_t>(0));
  EXPECT_EQ(parse_digits("4096"), std::optional<std::uint64_t>(4096));
  EXPECT_EQ(parse_digits("18446744073709551615"),
            std::optional<std::uint64_t>(18446744073709551615ull));
  for (const char* bad : {"", "-1", "+1", "3x", "x", " 1", "1.5",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_digits(bad).has_value()) << bad;
  }
}

TEST(Env, ParseFiniteTakesOnlyWholeFiniteNumbers) {
  EXPECT_EQ(parse_finite("0"), std::optional<double>(0.0));
  EXPECT_EQ(parse_finite("2.5"), std::optional<double>(2.5));
  EXPECT_EQ(parse_finite("-0.25"), std::optional<double>(-0.25));
  EXPECT_EQ(parse_finite("1e3"), std::optional<double>(1000.0));
  for (const char* bad : {"", "x", "1x", "1.5.2", " 1", "+1", "nan", "-nan",
                          "inf", "-inf", "infinity", "1e400"}) {
    EXPECT_FALSE(parse_finite(bad).has_value()) << bad;
  }
}

TEST(Env, ParseRealReadsTheFlagOrItsFallback) {
  const char* argv[] = {"prog", "--ccr=0.5", "--fraction=1", "--lo=0"};
  const ArgParser args(4, argv, {"ccr", "fraction", "lo", "interval"});
  EXPECT_DOUBLE_EQ(parse_real(args, "ccr", 2.0, 0.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(parse_real(args, "fraction", 0.25, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_real(args, "lo", 3.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(parse_real(args, "interval", 150.0, 100.0, 1e6), 150.0);
  // Out of [lo, hi] on either side: exit 2 naming the flag and the value.
  EXPECT_EXIT((void)parse_real(args, "ccr", 2.0, 1.0, 10.0),
              ::testing::ExitedWithCode(2), "bad --ccr value '0.5'");
  EXPECT_EXIT((void)parse_real(args, "fraction", 0.25, 0.0, 0.5),
              ::testing::ExitedWithCode(2), "bad --fraction value '1'");
}

// ----- thread pool -----------------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(&pool, hits.size(),
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForInlineWithoutPool) {
  std::vector<int> hits(50, 0);
  parallel_for(nullptr, hits.size(), [&hits](std::size_t i) { hits[i] = 1; });
  for (const int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(&pool, 100,
                   [](std::size_t i) {
                     if (i == 37) {
                       throw std::runtime_error("boom");
                     }
                   }),
      std::runtime_error);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  parallel_for(&pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForPropagatesExceptionWithUnitChunks) {
  // chunk_size=1 is the sharded simulator's epoch-barrier configuration:
  // every index is its own pool task, and a throwing shard drain must
  // still surface at the barrier after the other chunks settle.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(
                   &pool, 16,
                   [&ran](std::size_t i) {
                     ran.fetch_add(1);
                     if (i == 3) {
                       throw std::runtime_error("shard failed");
                     }
                   },
                   /*chunk_size=*/1),
               std::runtime_error);
  EXPECT_GE(ran.load(), 1);
}

TEST(ThreadPool, WaitIdleCoversTasksSubmittedByTasks) {
  // A task that fans out further tasks (rescheduling cascades) must be
  // fully settled — children included — when wait_idle() returns.
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &done] {
      pool.submit([&pool, &done] {
        pool.submit([&done] { done.fetch_add(1); });
        done.fetch_add(1);
      });
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 24);
}

TEST(ThreadPool, DestructionDrainsQueuedWork) {
  // The destructor contract: outstanding tasks run before the workers
  // join, so work queued behind a slow task is never dropped.
  std::atomic<int> completed{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&completed] { completed.fetch_add(1); });
    }
    // No wait_idle(): destruction itself must flush the queue.
  }
  EXPECT_EQ(completed.load(), 32);
}

}  // namespace
}  // namespace aheft
