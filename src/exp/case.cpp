#include "exp/case.h"

#include <optional>
#include <utility>

#include "core/heft.h"
#include "core/strategy.h"
#include "support/assert.h"
#include "support/rng.h"
#include "workloads/apps.h"
#include "workloads/random_dag.h"

namespace aheft::exp {

std::string to_string(AppKind app) {
  switch (app) {
    case AppKind::kRandom:
      return "random";
    case AppKind::kBlast:
      return "blast";
    case AppKind::kWien2k:
      return "wien2k";
    case AppKind::kMontage:
      return "montage";
    case AppKind::kGaussian:
      return "gaussian";
  }
  return "unknown";
}

namespace {

workloads::Workload generate_workload(const CaseSpec& spec,
                                      RngStream& rng) {
  switch (spec.app) {
    case AppKind::kRandom: {
      workloads::RandomDagParams params;
      params.jobs = spec.size;
      params.out_degree = spec.out_degree;
      params.ccr = spec.ccr;
      return workloads::generate_random_workload(params, rng);
    }
    case AppKind::kBlast:
    case AppKind::kWien2k:
    case AppKind::kMontage:
    case AppKind::kGaussian: {
      workloads::AppParams params;
      params.parallelism = spec.size;
      params.ccr = spec.ccr;
      switch (spec.app) {
        case AppKind::kBlast:
          return workloads::generate_blast(params, rng);
        case AppKind::kWien2k:
          return workloads::generate_wien2k(params, rng);
        case AppKind::kMontage:
          return workloads::generate_montage(params, rng);
        default:
          return workloads::generate_gaussian(params, rng);
      }
    }
  }
  throw std::invalid_argument("unknown application kind");
}

/// The session environment every strategy of a case runs under: the one
/// pool, (when the scenario carries load segments) the one profile, and
/// the spec's contention policy.
core::SessionEnvironment session_environment(const CaseSpec& spec,
                                             const CaseEnvironment& env) {
  core::SessionEnvironment session;
  session.pool = &env.scenario.pool;
  session.load = env.scenario.load.empty() ? nullptr : &env.scenario.load;
  session.contention_policy = spec.contention_policy;
  session.backfill = spec.backfill;
  session.resilience = spec.resilience;
  session.shards = spec.shards;
  // Scenario pools list the t=0 machines first and dynamic arrivals
  // after, so contiguous blocks would hand the high shards partitions of
  // machines that have not arrived yet (and a workflow released there
  // has nothing to plan on). Hashing interleaves initial machines and
  // arrivals across every shard.
  session.shard_assignment = core::ShardAssignment::kHashed;
  return session;
}

core::StrategyConfig strategy_config(const CaseSpec& spec) {
  core::StrategyConfig config;
  config.planner.scheduler = spec.scheduler;
  config.planner.react_to_variance = spec.react_to_variance;
  config.planner.contention_aware = spec.contention_aware;
  return config;
}

}  // namespace

CaseEnvironment build_case_environment(const CaseSpec& spec) {
  RngStream rng(spec.seed);
  RngStream dag_stream = rng.child("dag");
  workloads::Workload workload = generate_workload(spec, dag_stream);
  const std::uint64_t cost_seed = mix64(spec.seed, hash64("costs"));

  traces::ScenarioRequest request;
  request.dynamics = spec.dynamics;
  request.seed = mix64(spec.seed, hash64("scenario"));
  request.trace_path = spec.trace_path;
  request.bursty = spec.bursty;
  request.archive = spec.archive;
  request.stream.jobs = spec.stream_jobs;
  request.stream.interarrival_mean = spec.stream_interarrival;

  const traces::ScenarioSource& source =
      traces::scenario_source(spec.scenario_source);

  // Pass 1: plan on the environment's t = 0 pool alone to size the
  // arrival horizon (generator sources emit no dynamics at horizon 0;
  // the trace source carries its own timeline regardless).
  request.horizon = sim::kTimeZero;
  traces::CompiledScenario initial = source.build(request);
  grid::MachineModel initial_model = workloads::build_machine_model(
      workload, initial.pool.universe_size(), spec.beta, cost_seed);
  const sim::Time heft_makespan =
      core::heft_schedule(workload.dag, initial_model, initial.pool,
                          spec.scheduler)
          .makespan();

  // Pass 2: extend the universe with the generated dynamics up to the
  // horizon. Cost cells are deterministic per (seed, job, column), so the
  // pass-1 columns carry over as they are and only later arrivals' columns
  // are drawn. Horizon-insensitive sources (trace replay) would rebuild
  // the identical scenario, so reuse pass 1 instead of re-reading them.
  // Workflow streams push the horizon out by the arrival span (known
  // after pass 1: generators emit the arrival records at any horizon).
  if (!source.horizon_sensitive()) {
    return CaseEnvironment{std::move(workload), std::move(initial),
                           std::move(initial_model), heft_makespan};
  }
  const sim::Time arrival_span = initial.job_arrivals.empty()
                                     ? sim::kTimeZero
                                     : initial.job_arrivals.back().arrival;
  request.horizon = arrival_span + heft_makespan * spec.horizon_factor;
  traces::CompiledScenario scenario = source.build(request);
  grid::MachineModel model = workloads::extend_machine_model(
      initial_model, workload, scenario.pool.universe_size(), spec.beta,
      cost_seed);

  return CaseEnvironment{std::move(workload), std::move(scenario),
                         std::move(model), heft_makespan};
}

CaseResult run_case(const CaseSpec& spec) {
  AHEFT_REQUIRE(spec.horizon_factor >= 1.0 || !spec.run_dynamic,
                "dynamic baseline needs horizon_factor >= 1");
  // A stream axis would silently shift the environment (arrival-span
  // horizon extension) while this path simulates only one workflow;
  // multi-workflow specs belong to run_stream_case.
  AHEFT_REQUIRE(spec.stream_jobs <= 1,
                "spec carries a multi-DAG stream axis; use run_stream_case");
  // One workflow cannot span shard partitions; shards belong to streams.
  AHEFT_REQUIRE(spec.shards == 1, "single-DAG cases run serial (shards=1)");
  const CaseEnvironment env = build_case_environment(spec);
  const core::SessionEnvironment session = session_environment(spec, env);
  const core::StrategyConfig config = strategy_config(spec);
  const grid::MachineModel& model = env.model;
  const dag::Dag& dag = env.workload.dag;
  const bool loaded = session.load != nullptr;

  CaseResult result;
  result.jobs = dag.job_count();
  result.universe = env.scenario.pool.universe_size();
  // Under load the static plan's prediction is no longer what a static
  // run realizes, so simulate it; otherwise the plan is exact.
  result.heft_makespan =
      loaded ? core::run_strategy(core::StrategyKind::kStaticHeft, dag,
                                  model, model, session, config)
                   .makespan
             : env.heft_plan_makespan;

  const core::StrategyOutcome aheft = core::run_strategy(
      core::StrategyKind::kAdaptiveAheft, dag, model, model, session,
      config);
  result.aheft_makespan = aheft.makespan;
  result.evaluations = aheft.evaluations;
  result.adoptions = aheft.adoptions;

  if (spec.run_dynamic) {
    // The just-in-time baseline shares the session environment, so under
    // trace/volatility scenarios it realizes the same load-scaled run
    // times as the other two strategies.
    const core::StrategyOutcome minmin = core::run_strategy(
        core::StrategyKind::kDynamic, dag, model, model, session, config);
    result.minmin_makespan = minmin.makespan;
  }
  return result;
}

namespace {

StreamStrategySummary summarize(core::StreamOutcome outcome) {
  StreamStrategySummary summary;
  static_cast<core::StreamOutcome&>(summary) = std::move(outcome);
  summary.makespans.reserve(summary.workflows.size());
  summary.slowdowns.reserve(summary.workflows.size());
  summary.waits.reserve(summary.workflows.size());
  for (const core::WorkflowResult& wf : summary.workflows) {
    summary.makespans.push_back(wf.makespan);
    summary.slowdowns.push_back(wf.slowdown);
    summary.waits.push_back(wf.wait);
  }
  return summary;
}

}  // namespace

StreamSetup build_stream_setup(const CaseSpec& spec,
                               const CaseEnvironment& env) {
  const std::size_t universe = env.scenario.pool.universe_size();

  // One workflow instance per arrival record; a scenario without records
  // (single-DAG trace, stream_jobs = 0) degenerates to one arrival at 0.
  std::vector<traces::JobArrivalRecord> arrivals =
      env.scenario.job_arrivals;
  if (arrivals.empty()) {
    arrivals.push_back(traces::JobArrivalRecord{0, sim::kTimeZero, "wf0"});
  }

  // Materialize every instance's workload and cost matrix first (the
  // instances hold pointers into these vectors). Instance 0 reuses the
  // environment's base workload; later instances draw fresh DAGs of the
  // same shape and fresh cost columns over the shared universe.
  StreamSetup setup;
  setup.workloads.reserve(arrivals.size());
  setup.models.reserve(arrivals.size());
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    if (k == 0) {
      setup.workloads.push_back(env.workload);
      setup.models.push_back(env.model);
      continue;
    }
    RngStream dag_stream =
        RngStream(spec.seed).child("dag@" + std::to_string(k));
    setup.workloads.push_back(generate_workload(spec, dag_stream));
    setup.models.push_back(workloads::build_machine_model(
        setup.workloads.back(), universe, spec.beta,
        mix64(spec.seed, hash64("costs@" + std::to_string(k)))));
  }

  setup.instances.reserve(arrivals.size());
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    core::WorkflowInstance instance;
    instance.name = arrivals[k].name;
    instance.dag = &setup.workloads[k].dag;
    instance.estimates = &setup.models[k];
    instance.actual = &setup.models[k];
    instance.arrival = arrivals[k].arrival;
    if (!spec.stream_priorities.empty()) {
      instance.priority =
          spec.stream_priorities[k % spec.stream_priorities.size()];
    }
    setup.instances.push_back(instance);
  }
  return setup;
}

StreamStrategySummary run_stream_strategy(const CaseSpec& spec,
                                          const CaseEnvironment& env,
                                          const StreamSetup& setup,
                                          core::StrategyKind kind) {
  core::SessionEnvironment session = session_environment(spec, env);
  // Each strategy records into its own fresh repository so cross-strategy
  // comparisons stay independent; the merged fingerprint is exported on
  // the summary for twin-run determinism checks.
  std::optional<grid::PerformanceHistoryRepository> history;
  if (spec.use_history) {
    history.emplace();
    session.history = &*history;
  }
  const core::StrategyConfig config = strategy_config(spec);
  const std::unique_ptr<core::StrategyDriver> driver =
      core::make_strategy_driver(kind, config);
  StreamStrategySummary summary = summarize(
      core::run_workflow_stream(session, *driver, setup.instances));
  if (history.has_value()) {
    summary.history_observations = history->total_observations();
    for (const grid::PerformanceHistoryRepository::Observation& observation :
         history->snapshot()) {
      summary.history_estimates.push_back(observation.smoothed);
    }
  }
  return summary;
}

StreamCaseResult run_stream_case(const CaseSpec& spec) {
  // Streams always simulate the dynamic baseline, which can outlive the
  // static plan's horizon — the same guard run_case applies when
  // run_dynamic is set.
  AHEFT_REQUIRE(spec.horizon_factor >= 1.0,
                "stream cases need horizon_factor >= 1");
  const CaseEnvironment env = build_case_environment(spec);
  const StreamSetup setup = build_stream_setup(spec, env);

  StreamCaseResult result;
  result.workflows = setup.instances.size();
  result.universe = env.scenario.pool.universe_size();
  result.heft =
      run_stream_strategy(spec, env, setup, core::StrategyKind::kStaticHeft);
  result.aheft = run_stream_strategy(spec, env, setup,
                                     core::StrategyKind::kAdaptiveAheft);
  result.minmin =
      run_stream_strategy(spec, env, setup, core::StrategyKind::kDynamic);
  return result;
}

}  // namespace aheft::exp
