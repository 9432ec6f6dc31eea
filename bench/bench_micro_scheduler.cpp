// EXP-M1 — microbenchmarks (google-benchmark) for the scheduling core and
// simulation kernel: the costs a deployment would care about, since the
// Planner reschedules on-line while the workflow runs.
#include <benchmark/benchmark.h>

#include "core/execution_engine.h"
#include "core/heft.h"
#include "core/ranking.h"
#include "core/rescheduler.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "workloads/random_dag.h"
#include "workloads/scenario.h"

namespace {

using namespace aheft;

struct BenchCase {
  workloads::Workload workload;
  grid::ResourcePool pool;
  grid::MachineModel model;
};

BenchCase make_case(std::size_t jobs, std::size_t resources) {
  RngStream rng(mix64(jobs, resources));
  workloads::RandomDagParams params;
  params.jobs = jobs;
  params.ccr = 1.0;
  params.out_degree = 0.3;
  RngStream dag_stream = rng.child("dag");
  workloads::Workload w =
      workloads::generate_random_workload(params, dag_stream);
  grid::ResourcePool pool;
  for (std::size_t r = 0; r < resources; ++r) {
    pool.add(grid::Resource{});
  }
  grid::MachineModel model =
      workloads::build_machine_model(w, resources, 0.5, 99);
  return BenchCase{std::move(w), std::move(pool), std::move(model)};
}

void BM_UpwardRanks(benchmark::State& state) {
  const BenchCase c = make_case(static_cast<std::size_t>(state.range(0)), 20);
  const auto visible = c.pool.available_at(0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::upward_ranks(c.workload.dag, c.model, visible));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(c.workload.dag.job_count()));
}
BENCHMARK(BM_UpwardRanks)->Arg(20)->Arg(100)->Arg(500)->Arg(2000);

void BM_HeftSchedule(benchmark::State& state) {
  const BenchCase c = make_case(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::heft_schedule(c.workload.dag, c.model, c.pool));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(c.workload.dag.job_count()));
}
BENCHMARK(BM_HeftSchedule)
    ->Args({20, 10})
    ->Args({100, 10})
    ->Args({100, 50})
    ->Args({500, 50})
    ->Args({2000, 100});

void BM_AheftMidRunReschedule(benchmark::State& state) {
  const BenchCase c = make_case(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)));
  const core::Schedule plan =
      core::heft_schedule(c.workload.dag, c.model, c.pool);
  core::SessionEnvironment env;
  env.pool = &c.pool;
  core::SimulationSession session(env);
  core::ExecutionEngine engine(session, c.workload.dag, c.model);
  engine.submit(plan);
  session.simulator().run_until(plan.makespan() / 2.0);
  const core::ExecutionSnapshot snapshot = engine.snapshot();

  core::RescheduleRequest request;
  request.dag = &c.workload.dag;
  request.estimates = &c.model;
  request.pool = &c.pool;
  request.resources = c.pool.available_at(snapshot.clock());
  request.clock = snapshot.clock();
  request.snapshot = &snapshot;
  request.previous = &engine.current_schedule();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::aheft_schedule(request));
  }
}
// {jobs, machines}; 50 machines is about the 44 visible candidates per
// EFT search of bench_suite's paper_ccr workload.
BENCHMARK(BM_AheftMidRunReschedule)
    ->Args({20, 20})
    ->Args({100, 20})
    ->Args({500, 20})
    ->Args({100, 50});

void BM_EngineReplay(benchmark::State& state) {
  const BenchCase c = make_case(static_cast<std::size_t>(state.range(0)), 20);
  const core::Schedule plan =
      core::heft_schedule(c.workload.dag, c.model, c.pool);
  core::SessionEnvironment env;
  env.pool = &c.pool;
  for (auto _ : state) {
    core::SimulationSession session(env);
    core::ExecutionEngine engine(session, c.workload.dag, c.model);
    engine.submit(plan);
    session.run();
    benchmark::DoNotOptimize(engine.makespan());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(c.workload.dag.job_count()));
}
BENCHMARK(BM_EngineReplay)->Arg(20)->Arg(100)->Arg(500);

void BM_EventQueueChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RngStream rng(7);
  std::vector<double> times(n);
  for (double& t : times) {
    t = rng.uniform(0.0, 1000.0);
  }
  for (auto _ : state) {
    sim::EventQueue queue;
    int fired = 0;
    for (const double t : times) {
      queue.push(t, [&fired] { ++fired; });
    }
    while (!queue.empty()) {
      queue.pop().action();
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueChurn)->Arg(1000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
