// bench_suite's single point of coupling to the library.
//
// Every call the benchmark makes into src/ lives in this header, so an
// API change costs one edit here and none in bench_suite.cpp. It uses
// only the entry points the ROADMAP keeps: the exp case/stream builders
// and runners, core::run_workflow_stream, the session form of
// ExecutionEngine, the ContentionPolicyRegistry and grid::CostProvider —
// plus the public functions of the layers the replay probes time.
//
// Two paths run a workload:
//   library     the entry points users call (exp::run_case,
//               exp::run_stream_strategy, a session pump on its own
//               shard pool). The untraced, measured repetitions use it.
//   one worker  the same simulation through core::run_workflow_stream
//               with one worker (a sharded pump drains inline). Given
//               Counters, it adds a counting ContentionPolicy and counting
//               CostProviders; their counters are plain fields, because
//               with one worker every interceptor runs on one thread at a
//               time. Without Counters it is the traced run's untraced
//               twin, so the difference between the two is the cost of
//               the interceptors alone.
// Both paths must produce the same output digest; bench_suite.cpp checks
// it.
#ifndef AHEFT_BENCH_SUITE_ADAPTER_H_
#define AHEFT_BENCH_SUITE_ADAPTER_H_

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/contention_policy.h"
#include "core/execution_engine.h"
#include "core/heft.h"
#include "core/ranking.h"
#include "core/rescheduler.h"
#include "core/resource_ledger.h"
#include "core/schedule.h"
#include "core/session.h"
#include "core/strategy.h"
#include "core/workflow_stream.h"
#include "exp/case.h"
#include "exp/sweeps.h"
#include "grid/cost_provider.h"
#include "grid/history.h"
#include "grid/machine_model.h"
#include "grid/resource_pool.h"
#include "resilience/checkpoint_model.h"
#include "sim/event_queue.h"
#include "sim/trace.h"
#include "spans.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"

namespace aheft::suite {

using Metrics = std::map<std::string, double>;

inline std::size_t host_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

// ------------------------------------------------------------ digests --

/// FNV-1a over the exact bit patterns of the outputs, so any change in
/// the last digit of a makespan changes the digest.
class Digest {
 public:
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add_bits(bits);
  }
  void add(std::uint64_t value) { add_bits(value); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void add_bits(std::uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ------------------------------------------------------- interceptors --

/// Per-layer counts of one traced repetition.
struct Counters {
  std::uint64_t grant_calls = 0;
  std::uint64_t commit_calls = 0;
  double grant_s = 0.0;
  std::uint64_t plan_queries = 0;  ///< estimate queries (planning)
  std::uint64_t exec_queries = 0;  ///< ground-truth queries (execution)
};

/// Delegates to a built-in policy, counting and timing grant() and
/// counting on_commit().
class CountingPolicy final : public core::ContentionPolicy {
 public:
  CountingPolicy(std::unique_ptr<core::ContentionPolicy> inner,
                 Counters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  [[nodiscard]] core::ContentionPolicyKind kind() const override {
    return inner_->kind();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] sim::Time grant(
      const core::ContentionQuery& query) const override {
    const auto start = std::chrono::steady_clock::now();
    const sim::Time granted = inner_->grant(query);
    counters_->grant_s += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    ++counters_->grant_calls;
    return granted;
  }
  void on_commit(const core::ReservationEntry& entry, sim::Time start,
                 sim::Time end) override {
    ++counters_->commit_calls;
    inner_->on_commit(entry, start, end);
  }
  [[nodiscard]] bool needs_change_notifications() const override {
    return inner_->needs_change_notifications();
  }
  [[nodiscard]] bool two_phase_dynamic() const override {
    return inner_->two_phase_dynamic();
  }
  [[nodiscard]] bool supports_preemption() const override {
    return inner_->supports_preemption();
  }
  [[nodiscard]] double preemption_stretch(const core::ReservationEntry& entry,
                                          sim::Time now) const override {
    return inner_->preemption_stretch(entry, now);
  }

 private:
  std::unique_ptr<core::ContentionPolicy> inner_;
  Counters* counters_;
};

/// Registers "suite-counting-<base>" — a CountingPolicy around the
/// registered policy `base` tallying into `counters` — and returns the
/// name. Re-registering re-points the name at the new counters.
inline std::string counting_policy(const std::string& base,
                                   Counters* counters) {
  std::string name = "suite-counting-" + base;
  core::ContentionPolicyRegistry::instance().register_policy(
      name, [base, counters] {
        return std::make_unique<CountingPolicy>(
            core::ContentionPolicyRegistry::instance().create(base),
            counters);
      });
  return name;
}

/// Delegates every query to `inner`, counting each into `*queries`.
class CountingCosts final : public grid::CostProvider {
 public:
  CountingCosts(const grid::CostProvider& inner, std::uint64_t* queries)
      : inner_(inner), queries_(queries) {}

  [[nodiscard]] double compute_cost(dag::JobId job,
                                    grid::ResourceId resource) const override {
    ++*queries_;
    return inner_.compute_cost(job, resource);
  }
  [[nodiscard]] double comm_cost(const dag::Edge& e, grid::ResourceId from,
                                 grid::ResourceId to) const override {
    ++*queries_;
    return inner_.comm_cost(e, from, to);
  }
  [[nodiscard]] double mean_comm_cost(const dag::Edge& e) const override {
    ++*queries_;
    return inner_.mean_comm_cost(e);
  }
  [[nodiscard]] double mean_compute_cost(
      dag::JobId job,
      std::span<const grid::ResourceId> resources) const override {
    ++*queries_;
    return inner_.mean_compute_cost(job, resources);
  }

 private:
  const grid::CostProvider& inner_;
  std::uint64_t* queries_;
};

// ------------------------------------------------------------ outputs --

/// What one repetition produced, beyond its host time.
struct RepOutput {
  Digest digest;
  std::size_t attempted = 0;   ///< workflow runs (cases, workflows, chains)
  std::size_t failed = 0;      ///< workflows that failed terminally
  std::size_t unfinished = 0;  ///< neither finished nor failed
  std::size_t violations = 0;  ///< outputs that broke a checked invariant
  double jobs = 0.0;           ///< jobs scheduled, summed over strategies
  std::vector<double> case_ms;  ///< host ms per single-DAG case
  Metrics simulated;  ///< deterministic results (simulated time, ratios)
  Metrics layer;      ///< per-layer counts known without interceptors
};

/// A workload's input, built by setup() and consumed by run().
class Prepared {
 public:
  virtual ~Prepared() = default;
};

/// The DAG, cost model and pool the replay probes run on, and the
/// resilience config the workload runs them under.
struct ProbeSubject {
  const dag::Dag* dag = nullptr;
  const grid::CostProvider* costs = nullptr;
  const grid::ResourcePool* pool = nullptr;
  resilience::ResilienceConfig resilience;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs for `seed`; the same seed gives the same inputs.
  [[nodiscard]] virtual std::unique_ptr<Prepared> setup(
      std::uint64_t seed, SpanRecorder* spans) = 0;
  /// Runs the inputs to completion, on the library path or the one-worker
  /// path. Non-null `counters` (one-worker path only) adds the
  /// interceptors.
  [[nodiscard]] virtual RepOutput run(Prepared& input, bool library,
                                      Counters* counters,
                                      SpanRecorder* spans) = 0;
  [[nodiscard]] virtual ProbeSubject probe_subject(Prepared& input) = 0;
};

// ------------------------------------------------------ stream helpers --

/// The session environment exp::run_case and exp::run_stream_strategy
/// build for a spec (exp/case.cpp keeps its copy private). The digest
/// check between kLibrary and the other paths catches any drift.
inline core::SessionEnvironment session_environment(
    const exp::CaseSpec& spec, const exp::CaseEnvironment& env,
    Counters* counters) {
  core::SessionEnvironment session;
  session.pool = &env.scenario.pool;
  session.load = env.scenario.load.empty() ? nullptr : &env.scenario.load;
  session.contention_policy =
      counters != nullptr ? counting_policy(spec.contention_policy, counters)
                          : spec.contention_policy;
  session.backfill = spec.backfill;
  session.resilience = spec.resilience;
  session.shards = spec.shards;
  session.shard_assignment = core::ShardAssignment::kHashed;
  return session;
}

inline core::StrategyConfig strategy_config(const exp::CaseSpec& spec) {
  core::StrategyConfig config;
  config.planner.scheduler = spec.scheduler;
  config.planner.react_to_variance = spec.react_to_variance;
  config.planner.contention_aware = spec.contention_aware;
  return config;
}

/// Runs `instances` through run_workflow_stream on `workers`, wrapping
/// every instance's cost models in counting providers when `counters`
/// is set.
inline core::StreamOutcome run_stream_path(
    const exp::CaseSpec& spec, const exp::CaseEnvironment& env,
    std::vector<core::WorkflowInstance> instances, core::StrategyKind kind,
    Counters* counters, ThreadPool* workers, bool slowdowns) {
  std::vector<std::unique_ptr<CountingCosts>> wrappers;
  if (counters != nullptr) {
    for (core::WorkflowInstance& instance : instances) {
      wrappers.push_back(std::make_unique<CountingCosts>(
          *instance.estimates, &counters->plan_queries));
      instance.estimates = wrappers.back().get();
      wrappers.push_back(std::make_unique<CountingCosts>(
          *instance.actual, &counters->exec_queries));
      instance.actual = wrappers.back().get();
    }
  }
  const std::unique_ptr<core::StrategyDriver> driver =
      core::make_strategy_driver(kind, strategy_config(spec));
  core::StreamConfig config;
  config.compute_slowdowns = slowdowns;
  config.workers = workers;
  return core::run_workflow_stream(session_environment(spec, env, counters),
                                   *driver, std::move(instances), config);
}

/// The per-strategy fields the suite reads, from either stream path.
struct StrategySummary {
  std::vector<double> makespans;
  std::vector<double> waits;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t revoked_jobs = 0;
  std::size_t evaluations = 0;  ///< only the run_workflow_stream path
  std::size_t adoptions = 0;
  std::size_t restarts = 0;
  double mean_makespan = 0.0;  ///< over completed workflows
  double max_slowdown = 1.0;
  double useful_work = 0.0;
  double lost_work = 0.0;
  double checkpoint_overhead = 0.0;
};

inline StrategySummary summarize(const exp::StreamStrategySummary& s) {
  StrategySummary out;
  out.makespans = s.makespans;
  out.waits = s.waits;
  out.completed = s.completed_workflows;
  out.failed = s.failed_workflows;
  out.revoked_jobs = s.revoked_jobs;
  out.adoptions = s.adoptions;
  out.restarts = s.restarts;
  out.mean_makespan = s.mean_makespan;
  out.max_slowdown = s.max_slowdown;
  out.useful_work = s.useful_work;
  out.lost_work = s.lost_work;
  out.checkpoint_overhead = s.checkpoint_overhead;
  return out;
}

inline StrategySummary summarize(const core::StreamOutcome& s) {
  StrategySummary out;
  for (const core::WorkflowResult& wf : s.workflows) {
    out.makespans.push_back(wf.makespan);
    out.waits.push_back(wf.wait);
    out.evaluations += wf.outcome.evaluations;
    out.adoptions += wf.outcome.adoptions;
    out.restarts += wf.outcome.restarts;
  }
  out.completed = s.completed_workflows;
  out.failed = s.failed_workflows;
  out.revoked_jobs = s.revoked_jobs;
  out.mean_makespan = s.mean_makespan;
  out.max_slowdown = s.max_slowdown;
  out.useful_work = s.useful_work;
  out.lost_work = s.lost_work;
  out.checkpoint_overhead = s.checkpoint_overhead;
  return out;
}

// ----------------------------------------------------------- paper_ccr --

/// The §4.2 random-DAG sweep at default scale, every kCaseStride-th case.
/// The stride is coprime with the sweep's inner axis lengths (2, 2, 3 and
/// 5), so every value of every axis is still sampled.
class PaperCcr final : public Workload {
 public:
  static constexpr std::size_t kCaseStride = 11;

  struct Input final : Prepared {
    std::vector<exp::CaseSpec> specs;
    std::optional<exp::CaseEnvironment> probe_env;
  };

  std::unique_ptr<Prepared> setup(std::uint64_t seed,
                                  SpanRecorder* spans) override {
    const ScopedSpan span(spans, "exp.sweep");
    auto input = std::make_unique<Input>();
    const std::vector<exp::CaseSpec> sweep =
        exp::build_random_sweep(Scale::kDefault, seed, false);
    for (std::size_t i = 0; i < sweep.size(); i += kCaseStride) {
      input->specs.push_back(sweep[i]);
    }
    return input;
  }

  RepOutput run(Prepared& prepared, bool library, Counters* counters,
                SpanRecorder* spans) override {
    const Input& input = static_cast<const Input&>(prepared);
    RepOutput out;
    double heft_sum = 0.0;
    double aheft_sum = 0.0;
    std::size_t evaluations = 0;
    std::size_t adoptions = 0;
    std::size_t restarts = 0;
    for (const exp::CaseSpec& spec : input.specs) {
      const Stopwatch watch;
      double heft = 0.0;
      double aheft = 0.0;
      std::size_t jobs = 0;
      if (library) {
        const exp::CaseResult result = exp::run_case(spec);
        heft = result.heft_makespan;
        aheft = result.aheft_makespan;
        jobs = result.jobs;
      } else {
        std::optional<exp::CaseEnvironment> env;
        {
          const ScopedSpan span(spans, "exp.case_environment");
          env.emplace(exp::build_case_environment(spec));
        }
        const dag::Dag& dag = env->workload.dag;
        jobs = dag.job_count();
        const auto one = [&](core::StrategyKind kind) {
          const core::StreamOutcome stream = run_stream_path(
              spec, *env,
              {core::WorkflowInstance{"case", &dag, &env->model, &env->model,
                                      sim::kTimeZero, 1.0}},
              kind, counters, nullptr, false);
          return stream.workflows.front().outcome;
        };
        // As in exp::run_case: the static plan is exact unless a load
        // profile stretches run times, so only then is HEFT simulated.
        if (env->scenario.load.empty()) {
          heft = env->heft_plan_makespan;
        } else {
          const ScopedSpan span(spans, "core.stream.heft");
          heft = one(core::StrategyKind::kStaticHeft).makespan;
        }
        const ScopedSpan span(spans, "core.stream.aheft");
        const core::StrategyOutcome outcome =
            one(core::StrategyKind::kAdaptiveAheft);
        aheft = outcome.makespan;
        evaluations += outcome.evaluations;
        adoptions += outcome.adoptions;
        restarts += outcome.restarts;
      }
      out.case_ms.push_back(watch.milliseconds());
      out.digest.add(heft);
      out.digest.add(aheft);
      heft_sum += heft;
      aheft_sum += aheft;
      // AHEFT adopts a new plan only when it predicts a strict gain, and
      // estimates are exact here, so it never ends behind HEFT.
      if (aheft > heft * (1.0 + 1e-9)) {
        ++out.violations;
      }
      out.jobs += 2.0 * static_cast<double>(jobs);
      ++out.attempted;
    }
    out.simulated["aheft_gain_pct"] =
        heft_sum > 0.0 ? 100.0 * (heft_sum - aheft_sum) / heft_sum : 0.0;
    if (!library) {
      out.layer["core.plan.evaluations"] = static_cast<double>(evaluations);
      out.layer["core.plan.adoptions"] = static_cast<double>(adoptions);
      out.layer["core.plan.restarts"] = static_cast<double>(restarts);
    }
    return out;
  }

  /// Probes run on the largest case of the subsample.
  ProbeSubject probe_subject(Prepared& prepared) override {
    Input& input = static_cast<Input&>(prepared);
    if (!input.probe_env.has_value()) {
      const auto largest = std::max_element(
          input.specs.begin(), input.specs.end(),
          [](const exp::CaseSpec& a, const exp::CaseSpec& b) {
            return a.size < b.size;
          });
      input.probe_env.emplace(exp::build_case_environment(*largest));
    }
    return ProbeSubject{&input.probe_env->workload.dag,
                        &input.probe_env->model,
                        &input.probe_env->scenario.pool, {}};
  }
};

// ------------------------------------------------------ stream workloads --

/// Independent multi-DAG streams, each run once per strategy in `kinds`.
///
/// Stream k replays a grid timeline fixed by the workload — the pool
/// changes, load spikes, failures and arrival times of
/// make_spec(kTimelineSeed + k) — and draws its workflows (DAGs and cost
/// columns) from the run's seed, except workflow 0. build_stream_setup
/// reuses the environment's workload for instance 0, and that DAG's HEFT
/// plan sizes the timeline's horizon, so workflow 0 belongs to the fixed
/// timeline and is the same for every seed. The seed changes the work,
/// not the weather: a single timeline's bursts swing a stream's cost by a
/// fifth from seed to seed, which would drown any change worth measuring,
/// and several timelines per repetition keep one timeline's quirks from
/// deciding the result.
class StreamWorkload final : public Workload {
 public:
  using SpecFactory = std::function<exp::CaseSpec(std::uint64_t seed)>;
  static constexpr std::uint64_t kTimelineSeed = 1000;

  StreamWorkload(SpecFactory make_spec, std::size_t streams,
                 std::vector<core::StrategyKind> kinds)
      : make_spec_(std::move(make_spec)),
        streams_(streams),
        kinds_(std::move(kinds)) {}

  struct Stream {
    Stream(exp::CaseSpec s, exp::CaseEnvironment e)
        : spec(std::move(s)), env(std::move(e)) {}
    exp::CaseSpec spec;
    exp::CaseEnvironment env;
    exp::StreamSetup setup;
  };
  struct Input final : Prepared {
    std::vector<std::unique_ptr<Stream>> streams;
  };

  std::unique_ptr<Prepared> setup(std::uint64_t seed,
                                  SpanRecorder* spans) override {
    auto input = std::make_unique<Input>();
    for (std::size_t k = 0; k < streams_; ++k) {
      {
        const ScopedSpan span(spans, "exp.environment");
        input->streams.push_back(std::make_unique<Stream>(
            make_spec_(mix64(seed, k)),
            exp::build_case_environment(make_spec_(kTimelineSeed + k))));
      }
      const ScopedSpan span(spans, "exp.stream_setup");
      Stream& stream = *input->streams.back();
      stream.setup = exp::build_stream_setup(stream.spec, stream.env);
    }
    return input;
  }

  RepOutput run(Prepared& prepared, bool library, Counters* counters,
                SpanRecorder* spans) override {
    const Input& input = static_cast<const Input&>(prepared);
    // One worker keeps every interceptor on one thread at a time (a
    // one-thread pool runs parallel_for inline on the caller).
    std::optional<ThreadPool> one_worker;
    if (!library) {
      one_worker.emplace(1);
    }
    RepOutput out;
    // Per strategy, pooled over streams: completed makespan sum and count.
    std::map<core::StrategyKind, std::pair<double, double>> makespan_sums;
    double max_slowdown = 1.0;
    double useful = 0.0;
    double spent = 0.0;
    std::size_t evaluations = 0;
    std::size_t adoptions = 0;
    std::size_t restarts = 0;
    std::size_t revoked = 0;
    double lost_work = 0.0;
    for (const auto& stream : input.streams) {
      double jobs_per_strategy = 0.0;
      for (const core::WorkflowInstance& instance : stream->setup.instances) {
        jobs_per_strategy += static_cast<double>(instance.dag->job_count());
      }
      for (const core::StrategyKind kind : kinds_) {
        const std::string span_name = "core.stream." + core::to_string(kind);
        const ScopedSpan span(spans, span_name.c_str());
        const StrategySummary s =
            library
                ? summarize(exp::run_stream_strategy(
                      stream->spec, stream->env, stream->setup, kind))
                : summarize(run_stream_path(
                      stream->spec, stream->env, stream->setup.instances,
                      kind, counters, &*one_worker, true));
        for (std::size_t i = 0; i < s.makespans.size(); ++i) {
          out.digest.add(s.makespans[i]);
          out.digest.add(s.waits[i]);
        }
        out.attempted += s.makespans.size();
        out.failed += s.failed;
        out.unfinished += s.makespans.size() - s.completed - s.failed;
        out.jobs += jobs_per_strategy;
        auto& [sum, count] = makespan_sums[kind];
        sum += s.mean_makespan * static_cast<double>(s.completed);
        count += static_cast<double>(s.completed);
        if (kind == core::StrategyKind::kAdaptiveAheft) {
          max_slowdown = std::max(max_slowdown, s.max_slowdown);
          useful += s.useful_work;
          spent += s.useful_work + s.lost_work + s.checkpoint_overhead;
        }
        evaluations += s.evaluations;
        adoptions += s.adoptions;
        restarts += s.restarts;
        revoked += s.revoked_jobs;
        lost_work += s.lost_work;
      }
    }

    const auto mean_makespan = [&](core::StrategyKind kind) {
      const auto& [sum, count] = makespan_sums[kind];
      return count > 0.0 ? sum / count : 0.0;
    };
    const bool aheft = makespan_sums.count(core::StrategyKind::kAdaptiveAheft);
    if (aheft && makespan_sums.count(core::StrategyKind::kStaticHeft) > 0) {
      const double base = mean_makespan(core::StrategyKind::kStaticHeft);
      out.simulated["aheft_gain_pct"] =
          base > 0.0 ? 100.0 *
                           (base -
                            mean_makespan(core::StrategyKind::kAdaptiveAheft)) /
                           base
                     : 0.0;
    }
    if (aheft) {
      out.simulated["max_slowdown"] = max_slowdown;
      if (input.streams.front()->spec.resilience.active()) {
        out.simulated["goodput"] = spent > 0.0 ? useful / spent : 1.0;
      }
    }
    if (!library) {
      out.layer["core.plan.evaluations"] = static_cast<double>(evaluations);
    }
    out.layer["core.plan.adoptions"] = static_cast<double>(adoptions);
    out.layer["core.plan.restarts"] = static_cast<double>(restarts);
    out.layer["resilience.revoked_jobs"] = static_cast<double>(revoked);
    out.layer["resilience.lost_work"] = lost_work;
    return out;
  }

  /// Probes run on the first stream's last (seed-drawn) workflow and pool.
  ProbeSubject probe_subject(Prepared& prepared) override {
    const Stream& stream = *static_cast<const Input&>(prepared).streams.front();
    const core::WorkflowInstance& last = stream.setup.instances.back();
    return ProbeSubject{last.dag, last.estimates, &stream.env.scenario.pool,
                        stream.spec.resilience};
  }

 private:
  SpecFactory make_spec_;
  std::size_t streams_;
  std::vector<core::StrategyKind> kinds_;
};

/// The bench_multi_dag_stream shape at default scale: bursty arrivals of
/// 40-job random DAGs onto a volatile pool, FCFS, contention-aware.
inline exp::CaseSpec stream_fcfs_spec(std::uint64_t seed,
                                      std::size_t workflows) {
  exp::CaseSpec spec;
  spec.app = exp::AppKind::kRandom;
  spec.size = 40;
  spec.ccr = 1.0;
  spec.out_degree = 0.25;
  spec.dynamics = {8, 300.0, 0.2};
  spec.scenario_source = "bursty";
  spec.bursty.mean_calm = 400.0;
  spec.bursty.mean_burst = 120.0;
  spec.bursty.calm_arrival_mean = 500.0;
  spec.bursty.burst_arrival_mean = 60.0;
  spec.react_to_variance = true;
  spec.horizon_factor = 4.0;
  spec.stream_jobs = workflows;
  spec.stream_interarrival = 250.0;
  spec.contention_policy = "fcfs";
  spec.contention_aware = true;
  spec.seed = exp::case_seed(seed, spec, workflows);
  return spec;
}

/// The bench_checkpoint_restart failure-burst shape: a correlated share
/// of the machines fails in every burst while load spikes stretch the
/// survivors; fair share with preemption, requeue with Daly checkpoints.
inline exp::CaseSpec fairshare_failures_spec(std::uint64_t seed,
                                             std::size_t workflows) {
  exp::CaseSpec spec;
  spec.app = exp::AppKind::kRandom;
  spec.size = 40;
  spec.ccr = 1.0;
  spec.out_degree = 0.25;
  spec.dynamics = {8, 300.0, 0.2};
  spec.scenario_source = "bursty";
  spec.bursty.mean_calm = 300.0;
  spec.bursty.mean_burst = 150.0;
  spec.bursty.calm_arrival_mean = 500.0;
  spec.bursty.burst_arrival_mean = 80.0;
  spec.bursty.spike_fraction = 0.5;
  spec.bursty.spike_min = 2.0;
  spec.bursty.spike_max = 4.0;
  spec.bursty.failure_fraction = 0.45;
  spec.bursty.repair_mean = 250.0;
  spec.react_to_variance = true;
  spec.horizon_factor = 6.0;
  spec.stream_jobs = workflows;
  spec.stream_interarrival = 100.0;
  spec.seed = exp::case_seed(seed, spec, workflows);
  spec.contention_policy = "fair-share";
  spec.resilience.departure_action = resilience::DepartureAction::kRequeue;
  spec.resilience.checkpoint.enabled = true;
  spec.resilience.checkpoint.write_cost = 0.5;
  spec.resilience.checkpoint.read_cost = 0.5;
  spec.resilience.checkpoint.mtbf = 250.0;
  spec.resilience.preemption = true;
  return spec;
}

// --------------------------------------------------------------- pumps --

/// `chains` chains of `jobs` jobs, each pinned by a precomputed plan to a
/// machine of its own, driven through session ExecutionEngines with no
/// planning at all. Job i of every chain costs the same seeded amount, so
/// every shard reaches the same event times and a sharded run pays one
/// barrier per chain position.
class Pump final : public Workload {
 public:
  /// A sharded pump drains its epochs on min(shards, host CPUs) workers.
  Pump(std::size_t chains, std::size_t jobs, std::size_t shards, bool sinks)
      : chains_(chains), jobs_(jobs), shards_(shards), sinks_(sinks) {
    if (shards_ > 1) {
      workers_ = std::make_unique<ThreadPool>(std::min(shards_, host_cpus()));
    }
  }

  struct Input final : Prepared {
    grid::ResourcePool pool;
    dag::Dag chain{"chain"};
    std::unique_ptr<grid::MachineModel> model;
    std::vector<core::Schedule> plans;
  };

  std::unique_ptr<Prepared> setup(std::uint64_t seed,
                                  SpanRecorder* spans) override {
    const ScopedSpan span(spans, "pump.inputs");
    auto input = std::make_unique<Input>();
    for (std::size_t w = 0; w < chains_; ++w) {
      input->pool.add(grid::Resource{.name = "m" + std::to_string(w)});
    }
    for (std::size_t i = 0; i < jobs_; ++i) {
      input->chain.add_job("j" + std::to_string(i));
      if (i > 0) {
        input->chain.add_edge(static_cast<dag::JobId>(i - 1),
                              static_cast<dag::JobId>(i), 0.0);
      }
    }
    input->chain.finalize();
    RngStream rng = RngStream(seed).child("pump-costs");
    std::vector<double> cost(jobs_);
    for (double& c : cost) {
      c = rng.uniform(0.5, 1.5);
    }
    input->model = std::make_unique<grid::MachineModel>(jobs_, chains_);
    for (dag::JobId i = 0; i < jobs_; ++i) {
      for (grid::ResourceId r = 0; r < chains_; ++r) {
        input->model->set_compute_cost(i, r, cost[i]);
      }
    }
    input->plans.reserve(chains_);
    for (std::size_t w = 0; w < chains_; ++w) {
      core::Schedule plan(jobs_);
      sim::Time t = sim::kTimeZero;
      for (dag::JobId i = 0; i < jobs_; ++i) {
        plan.assign(core::Assignment{i, static_cast<grid::ResourceId>(w), t,
                                     t + cost[i]});
        t += cost[i];
      }
      input->plans.push_back(std::move(plan));
    }
    return input;
  }

  RepOutput run(Prepared& prepared, bool library, Counters* counters,
                SpanRecorder* spans) override {
    const Input& input = static_cast<const Input&>(prepared);
    sim::TraceRecorder trace;
    grid::PerformanceHistoryRepository history;
    std::optional<CountingCosts> counted;
    const grid::CostProvider* actual = input.model.get();
    if (counters != nullptr) {
      counted.emplace(*input.model, &counters->exec_queries);
      actual = &*counted;
    }
    core::SessionEnvironment env;
    env.pool = &input.pool;
    env.shards = shards_;
    // Off the library path the epochs drain inline on this thread, which
    // keeps the interceptors single-threaded and the output unchanged.
    env.shard_workers = library ? workers_.get() : nullptr;
    env.contention_policy =
        counters != nullptr ? counting_policy("fcfs", counters) : "fcfs";
    if (sinks_) {
      env.trace = &trace;
      env.history = &history;
    }
    core::SimulationSession session(env);
    std::vector<std::unique_ptr<core::ExecutionEngine>> engines;
    engines.reserve(chains_);
    {
      const ScopedSpan span(spans, "core.engine.submit");
      for (std::size_t w = 0; w < chains_; ++w) {
        const auto machine = static_cast<grid::ResourceId>(w);
        const auto binding = session.bind_shard(session.shard_of(machine));
        engines.push_back(std::make_unique<core::ExecutionEngine>(
            session, input.chain, *actual));
        if (sinks_) {
          // Fires on the shard's drain thread, where session.history()
          // is that shard's private delta.
          engines.back()->set_completion_hook(
              [&session, &input](dag::JobId job, grid::ResourceId resource,
                                 sim::Time start, sim::Time end) {
                session.history()->record(input.chain.job(job).operation,
                                          resource, end - start);
              });
        }
        engines.back()->submit(input.plans[w]);
      }
    }
    {
      const ScopedSpan span(spans, "sim.drain");
      session.run();
    }

    RepOutput out;
    for (const auto& engine : engines) {
      out.digest.add(engine->makespan());
      if (!engine->finished()) {
        ++out.unfinished;
      }
    }
    for (const sim::TraceInterval& interval : trace.intervals()) {
      out.digest.add(static_cast<std::uint64_t>(interval.kind));
      out.digest.add((std::uint64_t{interval.job} << 32) | interval.resource);
      out.digest.add(interval.start);
      out.digest.add(interval.end);
    }
    for (const auto& observation : history.snapshot()) {
      out.digest.add(static_cast<std::uint64_t>(observation.resource));
      out.digest.add(observation.smoothed);
      out.digest.add(static_cast<std::uint64_t>(observation.count));
    }
    out.attempted = chains_;
    out.jobs = static_cast<double>(chains_ * jobs_);
    out.layer["sim.events"] = static_cast<double>(session.executed_events());
    out.layer["sim.epochs"] = static_cast<double>(session.sharded().epochs());
    out.layer["sim.staged_messages"] =
        static_cast<double>(session.sharded().staged_messages());
    out.layer["sim.staging_high_water"] =
        static_cast<double>(session.sharded().staging_high_water());
    out.layer["sim.trace_intervals"] =
        static_cast<double>(trace.intervals().size());
    out.layer["grid.history_observations"] =
        static_cast<double>(history.total_observations());
    return out;
  }

  ProbeSubject probe_subject(Prepared& prepared) override {
    const Input& input = static_cast<const Input&>(prepared);
    return ProbeSubject{&input.chain, input.model.get(), &input.pool, {}};
  }

 private:
  std::size_t chains_;
  std::size_t jobs_;
  std::size_t shards_;
  bool sinks_;
  std::unique_ptr<ThreadPool> workers_;
};

// -------------------------------------------------------------- probes --

/// Median over five batches of the mean host time of one `op(i)` call, in
/// ns; `reset()` runs untimed before each batch.
template <typename Op, typename Reset>
double probe_ns(std::size_t per_batch, Op&& op, Reset&& reset) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> batches;
  std::size_t i = 0;
  for (int b = 0; b < 5; ++b) {
    reset();
    const auto start = Clock::now();
    for (std::size_t k = 0; k < per_batch; ++k) {
      op(i++);
    }
    batches.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count() /
        static_cast<double>(per_batch));
  }
  std::sort(batches.begin(), batches.end());
  return batches[batches.size() / 2];
}

/// probe_ns with batches sized by one calibration call to about 20 ms.
template <typename Op>
double probe_ns(Op&& op) {
  const Stopwatch calibration;
  op(std::size_t{0});
  const double once_ns = std::max(calibration.seconds() * 1e9, 1.0);
  const auto per_batch =
      static_cast<std::size_t>(std::clamp(2e7 / once_ns, 1.0, 1e6));
  return probe_ns(per_batch, op, [] {});
}

/// Replays each layer's public functions on the workload's own DAG, cost
/// model and pool. These layers expose no extension point to intercept.
inline Metrics run_probes(const ProbeSubject& subject, std::uint64_t seed) {
  constexpr std::size_t kLive = 4096;
  RngStream rng = RngStream(seed).child("probes");
  Metrics m;

  // Event queue: push/pop at a steady live set, then cancels.
  {
    sim::EventQueue queue;
    std::vector<double> gaps(kLive);
    for (double& gap : gaps) {
      gap = rng.uniform(0.0, 1000.0);
    }
    for (std::size_t i = 0; i < kLive; ++i) {
      queue.push(gaps[i], [] {});
    }
    m["sim.queue.push_pop_ns"] = probe_ns([&](std::size_t i) {
      const sim::EventQueue::Fired fired = queue.pop();
      queue.push(fired.time + gaps[i % kLive], [] {});
    });
    // Each batch cancels, in shuffled order, a fresh burst of events
    // pushed on top of the live set.
    std::vector<sim::EventId> ids;
    m["sim.queue.cancel_ns"] = probe_ns(
        4 * kLive,
        [&](std::size_t i) { queue.cancel(ids[i % ids.size()]); },
        [&] {
          ids.clear();
          for (std::size_t k = 0; k < 4 * kLive; ++k) {
            ids.push_back(queue.push(gaps[k % kLive] + 2000.0, [] {}));
          }
          for (std::size_t k = ids.size(); k > 1; --k) {
            std::swap(ids[k - 1], ids[rng.index(k)]);
          }
        });
  }

  // Ledger: upsert + commit round trips across kLive resources, eight
  // participants deep, on a fresh ledger per batch.
  {
    std::unique_ptr<core::ResourceLedger> ledger;
    std::vector<double> clock;
    m["core.ledger.upsert_commit_ns"] = probe_ns(
        8 * kLive,
        [&](std::size_t i) {
          const auto r = static_cast<grid::ResourceId>(i % kLive);
          const std::size_t participant = (i / kLive) % 8;
          ledger->upsert(participant, r, i, clock[r], 1.0, 1.0, 0.0, 0.0);
          (void)ledger->commit(participant, r, i, clock[r], clock[r] + 1.0);
          clock[r] += 1.0;
        },
        [&] {
          ledger = std::make_unique<core::ResourceLedger>();
          clock.assign(kLive, 0.0);
        });
  }

  // Ledger snapshot: four foreign windows on every machine of the pool.
  const std::size_t universe = subject.pool->universe_size();
  core::ResourceLedger busy;
  for (grid::ResourceId r = 0; r < universe; ++r) {
    for (std::size_t p = 1; p <= 4; ++p) {
      const sim::Time start = 10.0 * static_cast<double>(p);
      busy.upsert(p, r, r, start, 5.0, 1.0, 0.0, 0.0);
      (void)busy.commit(p, r, r, start, start + 5.0);
    }
  }
  core::AvailabilityView view;
  m["core.ledger.snapshot_view_us"] =
      1e-3 * probe_ns([&](std::size_t) { view = busy.snapshot_view(0, 0.0); });

  // Planning: ranks, a HEFT pass, and slot searches in its schedule.
  const dag::Dag& dag = *subject.dag;
  const grid::CostProvider& costs = *subject.costs;
  const grid::ResourcePool& pool = *subject.pool;
  const std::vector<grid::ResourceId> visible = pool.available_at(0.0);
  // Under restart semantics a pool whose machines all fail before a job
  // could finish is an outcome, not an error (as in the planner).
  const bool restartable = subject.resilience.departure_action !=
                           resilience::DepartureAction::kError;
  // The planners' innermost call: compute-cost queries over (job, machine)
  // pairs, all visible machines for one job before the next, as the
  // planners price a job. The pairs are precomputed so that the timed
  // loop does no division.
  std::vector<std::pair<dag::JobId, grid::ResourceId>> pairs;
  for (std::size_t k = 0; k < kLive; ++k) {
    pairs.emplace_back(
        static_cast<dag::JobId>((k / visible.size()) % dag.job_count()),
        visible[k % visible.size()]);
  }
  m["grid.cost_query_ns"] = probe_ns([&](std::size_t i) {
    const auto& [job, resource] = pairs[i % kLive];
    (void)costs.compute_cost(job, resource);
  });
  m["core.plan.upward_ranks_us"] = 1e-3 * probe_ns([&](std::size_t) {
    (void)core::upward_ranks(dag, costs, visible);
  });
  core::Schedule plan;
  m["core.plan.heft_ms"] = 1e-6 * probe_ns([&](std::size_t) {
    plan = core::heft_schedule(dag, costs, pool, {}, sim::kTimeZero, nullptr,
                               restartable);
  });
  struct Query {
    grid::ResourceId resource;
    sim::Time ready;
    sim::Time duration;
  };
  const std::vector<grid::ResourceId> used = plan.used_resources();
  const sim::Time span = std::max(plan.makespan(), 1.0);
  std::vector<Query> queries;
  for (std::size_t k = 0; k < kLive; ++k) {
    queries.push_back(Query{used[rng.index(used.size())],
                            rng.uniform(0.0, span),
                            rng.uniform(0.01, 0.1) * span});
  }
  for (const bool with_view : {false, true}) {
    m[with_view ? "core.schedule.earliest_slot_view_ns"
                : "core.schedule.earliest_slot_ns"] =
        probe_ns([&](std::size_t i) {
          const Query& q = queries[i % queries.size()];
          (void)plan.earliest_slot(q.resource, q.ready, q.duration,
                                   core::SlotPolicy::kInsertion,
                                   sim::kTimeZero, sim::kTimeInfinity,
                                   with_view ? &view : nullptr);
        });
  }

  // AHEFT replanning mid-run: execute the HEFT plan halfway in a session,
  // then replan from the engine's snapshot against the session's view.
  core::SessionEnvironment env;
  env.pool = &pool;
  env.resilience = subject.resilience;
  core::SimulationSession session(env);
  core::ExecutionEngine engine(session, dag, costs);
  engine.submit(plan);
  // Halfway through the plan, or at the next pool change that leaves a
  // machine visible to replan on (a failure burst can empty the pool).
  sim::Time clock = 0.5 * plan.makespan();
  while (clock < sim::kTimeInfinity && pool.count_available_at(clock) == 0) {
    clock = pool.next_change_after(clock);
  }
  (void)session.simulator().run_until(
      clock < sim::kTimeInfinity ? clock : sim::kTimeZero);
  const core::ExecutionSnapshot snapshot = engine.snapshot();
  const core::AvailabilityView session_view =
      session.availability_view(&engine);
  core::RescheduleRequest request;
  request.dag = &dag;
  request.estimates = &costs;
  request.pool = &pool;
  request.clock = session.simulator().now();
  request.resources = pool.available_at(request.clock);
  request.snapshot = &snapshot;
  request.previous = &engine.current_schedule();
  request.availability = &session_view;
  request.allow_infeasible = restartable;
  m["core.plan.aheft_ms"] = 1e-6 * probe_ns([&](std::size_t) {
    (void)core::aheft_schedule(request);
  });
  return m;
}

// ------------------------------------------------------------- envelope --

/// The repository's BENCH_*.json envelope (bench/bench_util.h).
using Envelope = bench::JsonReport;

inline Envelope make_envelope(std::uint64_t seed) {
  bench::BenchOptions options;
  options.scale = Scale::kDefault;
  options.seed = seed;
  return Envelope("bench_suite", options);
}

}  // namespace aheft::suite

#endif  // AHEFT_BENCH_SUITE_ADAPTER_H_
