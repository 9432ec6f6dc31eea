#include "helpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "support/rng.h"
#include "workloads/random_dag.h"

namespace aheft::test {

RandomCase make_random_case(std::uint64_t seed,
                            const RandomCaseOptions& options) {
  RngStream rng(seed);
  workloads::RandomDagParams params;
  params.jobs = options.jobs;
  params.ccr = options.ccr;
  params.out_degree = options.out_degree;
  RngStream dag_stream = rng.child("dag");
  workloads::Workload workload =
      workloads::generate_random_workload(params, dag_stream);

  workloads::ResourceDynamics dynamics{options.initial_resources,
                                       options.interval, options.fraction};
  grid::ResourcePool pool =
      workloads::build_dynamic_pool(dynamics, options.horizon);
  grid::MachineModel model = workloads::build_machine_model(
      workload, pool.universe_size(), options.beta, mix64(seed, 17));
  return RandomCase{std::move(workload), std::move(pool), std::move(model)};
}

core::SessionEnvironment solo_environment(const grid::ResourcePool& pool,
                                          sim::TraceRecorder* trace) {
  core::SessionEnvironment env;
  env.pool = &pool;
  env.trace = trace;
  return env;
}

core::StrategyOutcome run_aheft(const dag::Dag& dag,
                                const grid::CostProvider& estimates,
                                const grid::CostProvider& actual,
                                const grid::ResourcePool& pool,
                                const core::PlannerConfig& config) {
  core::StrategyConfig strategy;
  strategy.planner = config;
  return core::run_strategy(core::StrategyKind::kAdaptiveAheft, dag,
                            estimates, actual, solo_environment(pool),
                            strategy);
}

void expect_bit_identical(const core::Schedule& a, const core::Schedule& b) {
  ASSERT_EQ(a.job_count(), b.job_count());
  for (dag::JobId i = 0; i < a.job_count(); ++i) {
    const core::Assignment& x = a.assignment(i);
    const core::Assignment& y = b.assignment(i);
    EXPECT_EQ(x.resource, y.resource) << "job " << i;
    EXPECT_EQ(x.start, y.start) << "job " << i;
    EXPECT_EQ(x.finish, y.finish) << "job " << i;
  }
}

void expect_valid_trace(const sim::TraceRecorder& trace, const dag::Dag& dag,
                        const grid::CostProvider& costs,
                        const grid::ResourcePool& pool) {
  // Group compute intervals per job; a job may have cancelled partial runs
  // before its completed one, which is chronologically last.
  std::map<std::uint32_t, std::vector<sim::TraceInterval>> by_job;
  std::map<std::uint32_t, std::vector<sim::TraceInterval>> by_resource;
  for (const sim::TraceInterval& interval : trace.intervals()) {
    if (interval.kind != sim::IntervalKind::kCompute) {
      continue;
    }
    by_job[interval.job].push_back(interval);
    by_resource[interval.resource].push_back(interval);
  }

  ASSERT_EQ(by_job.size(), dag.job_count()) << "some job never computed";

  // The completed run of each job: last interval, exact duration, inside
  // the resource's availability window.
  std::map<std::uint32_t, sim::TraceInterval> completed;
  for (auto& [job, intervals] : by_job) {
    std::stable_sort(intervals.begin(), intervals.end(),
                     [](const sim::TraceInterval& a,
                        const sim::TraceInterval& b) {
                       return a.start < b.start;
                     });
    const sim::TraceInterval& last = intervals.back();
    const double w = costs.compute_cost(last.job, last.resource);
    EXPECT_TRUE(sim::time_eq(last.end - last.start, w))
        << "job " << dag.job(last.job).name
        << " completed run duration " << (last.end - last.start)
        << " != cost " << w;
    const grid::Resource& machine = pool.resource(last.resource);
    EXPECT_TRUE(sim::time_ge(last.start, machine.arrival));
    EXPECT_TRUE(sim::time_le(last.end, machine.departure));
    completed.emplace(job, last);
  }

  // Per-resource disjointness over all runs (including cancelled ones).
  for (auto& [resource, intervals] : by_resource) {
    std::stable_sort(intervals.begin(), intervals.end(),
                     [](const sim::TraceInterval& a,
                        const sim::TraceInterval& b) {
                       return a.start < b.start;
                     });
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_TRUE(sim::time_le(intervals[i - 1].end, intervals[i].start))
          << "overlap on resource " << pool.resource(resource).name;
    }
  }

  // Precedence + minimum transfer latency: every run of a consumer starts
  // after each producer finished, plus the link cost when the consumer ran
  // on a different resource than the producer (any staging path costs at
  // least one direct transfer).
  for (std::size_t e = 0; e < dag.edge_count(); ++e) {
    const dag::Edge& edge = dag.edges()[e];
    const sim::TraceInterval& producer = completed.at(edge.from);
    for (const sim::TraceInterval& run : by_job.at(edge.to)) {
      sim::Time earliest = producer.end;
      if (run.resource != producer.resource) {
        earliest += costs.comm_cost(edge, producer.resource, run.resource);
      }
      EXPECT_TRUE(sim::time_ge(run.start, earliest))
          << dag.job(edge.to).name << " started at " << run.start
          << " before input from " << dag.job(edge.from).name
          << " could arrive at " << earliest;
    }
  }
}

sim::Time file_available(const core::RescheduleRequest& request,
                         std::size_t edge_index, grid::ResourceId target,
                         const core::Schedule& new_schedule) {
  const dag::Edge& edge = request.dag->edges()[edge_index];
  const core::ExecutionSnapshot* snapshot = request.snapshot;
  if (snapshot != nullptr && snapshot->finished(edge.from)) {
    if (const auto known = snapshot->arrival(edge_index, target)) {
      return *known;  // Case 1, or a transfer S0 already started
    }
    const core::FinishedInfo info = snapshot->finished_info(edge.from);
    return core::transfer_window(
               request.config.transfer_policy, request.clock, info.aft,
               request.pool->resource(target).arrival,
               request.estimates->comm_cost(edge, info.resource, target))
        .arrival;  // Case 2
  }
  const core::Assignment& placed = new_schedule.assignment(edge.from);
  if (placed.resource == target) {
    return placed.finish;  // Case 3
  }
  return placed.finish +
         request.estimates->comm_cost(edge, placed.resource, target);
}

}  // namespace aheft::test
