// Archive subsystem tests: SWF/GWA parsing with line-numbered rejection,
// write/read round-trips, the usable-job filter, distribution fitting,
// the seeded O(1)-state generator, and the `archive` / `fitted`
// ScenarioSource backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "archive/archive_source.h"
#include "archive/fitted_model.h"
#include "archive/swf_reader.h"
#include "support/rng.h"
#include "traces/scenario_source.h"

namespace aheft::archive {
namespace {

std::string fixture(const std::string& name) {
  return std::string(AHEFT_TEST_DATA_DIR) + "/" + name;
}

/// Asserts `text` is rejected at `line` with `fragment` in the message.
void expect_rejects(const std::string& text, std::size_t line,
                    const std::string& fragment) {
  try {
    (void)read_swf_string(text);
    FAIL() << "expected SwfParseError with: " << fragment;
  } catch (const SwfParseError& error) {
    EXPECT_EQ(error.line(), line) << error.what();
    EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
        << error.what();
  }
}

constexpr const char* kTinyLog =
    "; MaxNodes: 4\n"
    "; UnixStartTime: 1167609600\n"
    "1 0 5 120 2 -1 -1 2 300 -1 1 101 10 7 1 -1 -1 -1\n"
    "2 30 12 95 2 -1 -1 2 300 -1 1 101 10 7 1 -1 -1 -1\n"
    "3 400 60 3600 4 -1 -1 4 7200 -1 1 202 20 3 1 -1 -1 -1\n";

// ------------------------------------------------------------- reader --

TEST(SwfReader, ParsesHeaderCommentsAndRecords) {
  const SwfLog log = read_swf_file(fixture("sample_clean.swf"));
  EXPECT_EQ(log.header.value("Version"), "2.2");
  EXPECT_EQ(log.header.max_nodes(), 8u);
  EXPECT_EQ(log.header.max_procs(), 32u);
  EXPECT_EQ(log.header.unix_start_time(), 1167609600u);
  // Free-text comments (even with colons in running text) are not fields.
  EXPECT_EQ(log.header.value("note that free-text comments like this one"),
            "");
  ASSERT_EQ(log.jobs.size(), 42u);

  const SwfJob& first = log.jobs.front();
  EXPECT_EQ(first.id, 1);
  EXPECT_EQ(first.submit, 0.0);
  EXPECT_EQ(first.wait, 5.0);
  EXPECT_EQ(first.runtime, 120.0);
  EXPECT_EQ(first.procs, 2);
  EXPECT_EQ(first.requested_procs, 2);
  EXPECT_EQ(first.requested_time, 300.0);
  EXPECT_TRUE(first.completed());
  EXPECT_EQ(first.user, 101);
}

TEST(SwfReader, ToleratesGwaExtraFields) {
  // Records 24/25 of the fixture carry trailing GWA columns.
  const SwfLog log = read_swf_file(fixture("sample_clean.swf"));
  const auto it = std::find_if(log.jobs.begin(), log.jobs.end(),
                               [](const SwfJob& j) { return j.id == 24; });
  ASSERT_NE(it, log.jobs.end());
  EXPECT_EQ(it->runtime, 150.0);
}

TEST(SwfReader, RejectsWithLineNumbers) {
  expect_rejects("1 0 5 120 2 -1 -1 2\n", 1, "expected 18 fields");
  expect_rejects(std::string(kTinyLog) + "4 x 0 1 1 -1 -1 1 1 -1 1 1 1 1 1 "
                                         "-1 -1 -1\n",
                 6, "malformed submit time");
  expect_rejects(std::string(kTinyLog) + "4 -5 0 1 1 -1 -1 1 1 -1 1 1 1 1 1 "
                                         "-1 -1 -1\n",
                 6, "non-negative");
  // SWF logs are submit-ordered by definition.
  expect_rejects(std::string(kTinyLog) + "4 10 0 1 1 -1 -1 1 1 -1 1 1 1 1 1 "
                                         "-1 -1 -1\n",
                 6, "non-decreasing");
  expect_rejects("1 0 5 nan 2 -1 -1 2 300 -1 1 101 10 7 1 -1 -1 -1\n", 1,
                 "malformed run time");
}

TEST(SwfReader, MalformedFixtureNamesTheOffendingLine) {
  try {
    (void)read_swf_file(fixture("sample_malformed.swf"));
    FAIL() << "expected SwfParseError";
  } catch (const SwfParseError& error) {
    EXPECT_EQ(error.line(), 6u);
    EXPECT_NE(std::string(error.what()).find("malformed run time"),
              std::string::npos);
  }
}

TEST(SwfReader, WriteReadRoundTripIsIdentical) {
  const SwfLog original = read_swf_file(fixture("sample_clean.swf"));
  const SwfLog reread = read_swf_string(write_swf_string(original));
  // The writer drops fields the struct never stores, so compare what is
  // stored: headers and the job records themselves.
  EXPECT_EQ(original.header.fields, reread.header.fields);
  EXPECT_EQ(original.jobs, reread.jobs);
  // And the serialized form is a fixed point.
  EXPECT_EQ(write_swf_string(original), write_swf_string(reread));
}

TEST(SwfReader, RoundTripsExactDoubles) {
  SwfLog log;
  SwfJob job;
  job.id = 1;
  job.submit = 0.1 + 0.2;  // not representable as a short decimal
  job.runtime = 1.0000000000000002;
  job.procs = 1;
  job.status = 1;
  log.jobs.push_back(job);
  const SwfLog reread = read_swf_string(write_swf_string(log));
  ASSERT_EQ(reread.jobs.size(), 1u);
  EXPECT_EQ(reread.jobs[0].submit, job.submit);
  EXPECT_EQ(reread.jobs[0].runtime, job.runtime);
}

TEST(SwfReader, UsableJobsFiltersAndFallsBack) {
  const SwfLog log = read_swf_file(fixture("sample_clean.swf"));
  const std::vector<SwfJob> usable = usable_jobs(log);
  // 42 records minus: 1 cancelled (id 8), 2 failed (ids 5, 27), 1 with
  // zero runtime (id 15).
  EXPECT_EQ(usable.size(), 38u);
  for (const SwfJob& job : usable) {
    EXPECT_TRUE(job.completed());
    EXPECT_GT(job.runtime, 0.0);
    EXPECT_GT(job.procs, 0);
  }
  // id 16 had procs = -1 and falls back to requested_procs = 4.
  const auto it = std::find_if(usable.begin(), usable.end(),
                               [](const SwfJob& j) { return j.id == 16; });
  ASSERT_NE(it, usable.end());
  EXPECT_EQ(it->procs, 4);
  // include_failed keeps the failed (but not the runtime-less) records.
  EXPECT_EQ(usable_jobs(log, /*include_failed=*/true).size(), 40u);
}

// ------------------------------------------------------------ fitting --

TEST(ArchiveFit, FitsTheCleanFixture) {
  const SwfLog log = read_swf_file(fixture("sample_clean.swf"));
  const ArchiveFit fit = fit_archive(log);
  EXPECT_EQ(fit.fitted_jobs, 38u);
  EXPECT_GT(fit.span_seconds, 0.0);
  EXPECT_GT(fit.mean_rate, 0.0);
  EXPECT_GE(fit.peak_rate, fit.mean_rate);
  EXPECT_GT(fit.mean_runtime, 0.0);
  EXPECT_GE(fit.mean_bag_size, 1.0);
  EXPECT_GT(fit.bag_size_p, 0.0);
  EXPECT_LE(fit.bag_size_p, 1.0);
  EXPECT_GE(fit.runtime_correlation, 0.0);
  EXPECT_LE(fit.runtime_correlation, 0.95);
  // The chosen distribution is the KS winner.
  const double chosen = fit.runtime_is_log_normal ? fit.runtime_ks_log_normal
                                                  : fit.runtime_ks_weibull;
  EXPECT_LE(chosen, std::max(fit.runtime_ks_log_normal,
                             fit.runtime_ks_weibull));
  // The procs CDF ends at probability exactly 1 and is monotone.
  ASSERT_FALSE(fit.procs_cdf.empty());
  EXPECT_EQ(fit.procs_cdf.back().first, 1.0);
  for (std::size_t i = 1; i < fit.procs_cdf.size(); ++i) {
    EXPECT_GT(fit.procs_cdf[i].first, fit.procs_cdf[i - 1].first);
    EXPECT_GT(fit.procs_cdf[i].second, fit.procs_cdf[i - 1].second);
  }
  // The fixture has multi-job bags, so the empirical intra-bag gap
  // quantile table is populated, non-decreasing, and interpolation stays
  // within its range.
  ASSERT_EQ(fit.intra_gap_quantiles.size(), ArchiveFit::kGapQuantileSteps);
  for (std::size_t i = 1; i < fit.intra_gap_quantiles.size(); ++i) {
    EXPECT_GE(fit.intra_gap_quantiles[i], fit.intra_gap_quantiles[i - 1]);
  }
  EXPECT_EQ(fit.intra_gap_from_uniform(0.0), fit.intra_gap_quantiles.front());
  EXPECT_EQ(fit.intra_gap_from_uniform(1.0), fit.intra_gap_quantiles.back());
  const double mid = fit.intra_gap_from_uniform(0.5);
  EXPECT_GE(mid, fit.intra_gap_quantiles.front());
  EXPECT_LE(mid, fit.intra_gap_quantiles.back());
}

TEST(ArchiveFit, RejectsUnfittableLogs) {
  EXPECT_THROW((void)fit_archive(SwfLog{}), std::invalid_argument);
  // Two usable jobs at the same instant: no span to estimate rates from.
  const SwfLog log = read_swf_string(
      "1 0 0 10 1 -1 -1 1 10 -1 1 1 1 1 1 -1 -1 -1\n"
      "2 0 0 20 1 -1 -1 1 20 -1 1 1 1 1 1 -1 -1 -1\n");
  EXPECT_THROW((void)fit_archive(log), std::invalid_argument);
}

TEST(FittedJobStream, IsBitDeterministicAtFixedSeed) {
  const SwfLog log = read_swf_file(fixture("sample_clean.swf"));
  const ArchiveFit fit = fit_archive(log);
  FittedJobStream a(fit, 1234);
  FittedJobStream b(fit, 1234);
  FittedJobStream other(fit, 5678);
  bool any_difference = false;
  double last_arrival = 0.0;
  for (std::size_t i = 0; i < 500; ++i) {
    const GeneratedJob ja = a.next();
    const GeneratedJob jb = b.next();
    const GeneratedJob jo = other.next();
    // Bit-identical across instances, not merely close.
    EXPECT_EQ(ja.arrival, jb.arrival);
    EXPECT_EQ(ja.runtime, jb.runtime);
    EXPECT_EQ(ja.procs, jb.procs);
    EXPECT_EQ(ja.bag, jb.bag);
    any_difference |= jo.arrival != ja.arrival;

    EXPECT_EQ(ja.index, i);
    EXPECT_GE(ja.arrival, last_arrival);
    last_arrival = ja.arrival;
    EXPECT_GT(ja.runtime, 0.0);
    EXPECT_GT(ja.procs, 0);
  }
  EXPECT_TRUE(any_difference) << "seed must matter";
}

TEST(FittedJobStream, DrawsProcsFromTheObservedSupport) {
  const SwfLog log = read_swf_file(fixture("sample_clean.swf"));
  const ArchiveFit fit = fit_archive(log);
  std::set<std::int64_t> support;
  for (const auto& [probability, procs] : fit.procs_cdf) {
    support.insert(procs);
  }
  FittedJobStream stream(fit, 7);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(support.contains(stream.next().procs));
  }
}

// ----------------------------------------------------------- backends --

traces::ScenarioRequest archive_request() {
  traces::ScenarioRequest request;
  request.archive.path = fixture("sample_clean.swf");
  request.horizon = 4000.0;
  request.seed = 99;
  return request;
}

TEST(ArchiveSource, ReplaysTheFixture) {
  const traces::ScenarioRequest request = archive_request();
  const traces::CompiledScenario scenario =
      traces::build_scenario("archive", request);
  // MaxNodes: 8 sizes the pool.
  EXPECT_EQ(scenario.pool.universe_size(), 8u);
  // One arrival per usable job, shifted to t = 0, submit-ordered.
  ASSERT_EQ(scenario.job_arrivals.size(), 38u);
  EXPECT_EQ(scenario.job_arrivals.front().arrival, 0.0);
  EXPECT_EQ(scenario.job_arrivals.front().name, "swf1");
  for (std::size_t i = 1; i < scenario.job_arrivals.size(); ++i) {
    EXPECT_GE(scenario.job_arrivals[i].arrival,
              scenario.job_arrivals[i - 1].arrival);
  }
  // Replay is horizon-insensitive (fixed timeline, like `trace`).
  EXPECT_FALSE(
      traces::scenario_source("archive").horizon_sensitive());
  // Identical requests compile identically (same parse, same buckets).
  const traces::CompiledScenario again =
      traces::build_scenario("archive", request);
  EXPECT_EQ(scenario.job_arrivals, again.job_arrivals);
  EXPECT_EQ(scenario.load.segments(), again.load.segments());
}

TEST(ArchiveSource, AppliesStreamCapAndTimeScale) {
  traces::ScenarioRequest request = archive_request();
  request.stream.jobs = 5;
  request.archive.time_scale = 0.5;
  request.archive.machines = 3;
  const traces::CompiledScenario scenario =
      traces::build_scenario("archive", request);
  EXPECT_EQ(scenario.pool.universe_size(), 3u);
  ASSERT_EQ(scenario.job_arrivals.size(), 5u);
  // Fixture job 4 (4th usable record) submits at 400 -> scaled to 200.
  EXPECT_EQ(scenario.job_arrivals[3].arrival, 200.0);
}

TEST(ArchiveSource, RequiresAPathOrText) {
  traces::ScenarioRequest request;
  EXPECT_THROW((void)traces::build_scenario("archive", request),
               std::invalid_argument);
  EXPECT_THROW((void)traces::build_scenario("fitted", request),
               std::invalid_argument);
}

TEST(FittedSource, GeneratesASeededStream) {
  traces::ScenarioRequest request = archive_request();
  request.stream.jobs = 25;
  const traces::CompiledScenario scenario =
      traces::build_scenario("fitted", request);
  ASSERT_EQ(scenario.job_arrivals.size(), 25u);
  for (std::size_t i = 1; i < scenario.job_arrivals.size(); ++i) {
    EXPECT_GE(scenario.job_arrivals[i].arrival,
              scenario.job_arrivals[i - 1].arrival);
  }
  // Same request, same stream — bit-identical.
  const traces::CompiledScenario again =
      traces::build_scenario("fitted", request);
  EXPECT_EQ(scenario.job_arrivals, again.job_arrivals);
  // A different seed yields a different stream.
  traces::ScenarioRequest reseeded = request;
  reseeded.seed = 1000;
  EXPECT_NE(traces::build_scenario("fitted", reseeded).job_arrivals,
            scenario.job_arrivals);
}

TEST(FittedSource, InlineTextWorksLikeAFile) {
  traces::ScenarioRequest request;
  request.archive.text = kTinyLog;
  request.stream.jobs = 3;
  request.seed = 5;
  const traces::CompiledScenario scenario =
      traces::build_scenario("fitted", request);
  EXPECT_EQ(scenario.pool.universe_size(), 4u);  // MaxNodes: 4
  EXPECT_EQ(scenario.job_arrivals.size(), 3u);
}

}  // namespace
}  // namespace aheft::archive
