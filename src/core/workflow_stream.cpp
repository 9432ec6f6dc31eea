#include "core/workflow_stream.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "support/assert.h"
#include "support/stats.h"
#include "support/thread_pool.h"

namespace aheft::core {

namespace {

/// Solo makespan of one instance: the same driver, grid, and release
/// time, but a fresh serial session with no competing workflows. The
/// trace recorder and history repository are NOT shared — the measured
/// stream run must stay the only thing they observe.
sim::Time solo_makespan(const SessionEnvironment& env,
                        StrategyDriver& driver,
                        const WorkflowInstance& instance) {
  SessionEnvironment solo_env = env;
  solo_env.trace = nullptr;
  solo_env.history = nullptr;
  // One workflow has nothing to shard; a serial solo session also keeps
  // the baseline identical whatever the contended run's shard count.
  solo_env.shards = 1;
  solo_env.shard_workers = nullptr;
  SimulationSession session(solo_env);
  sim::Time finish = sim::kTimeZero;
  bool completed = false;
  driver.launch(session, *instance.dag, *instance.estimates,
                *instance.actual,
                LaunchOptions{instance.arrival, instance.priority},
                [&](const StrategyOutcome& outcome) {
                  finish = outcome.makespan;
                  completed = true;
                });
  session.run();
  AHEFT_ASSERT(completed, "solo baseline did not complete");
  return finish - instance.arrival;
}

}  // namespace

StreamOutcome run_workflow_stream(const SessionEnvironment& env,
                                  StrategyDriver& driver,
                                  std::vector<WorkflowInstance> instances,
                                  StreamConfig config) {
  AHEFT_REQUIRE(!instances.empty(), "workflow stream needs >= 1 instance");
  for (const WorkflowInstance& instance : instances) {
    AHEFT_REQUIRE(instance.dag != nullptr && instance.estimates != nullptr &&
                      instance.actual != nullptr,
                  "workflow instance is missing its DAG or cost model");
    AHEFT_REQUIRE(sim::time_le(sim::kTimeZero, instance.arrival),
                  "workflow arrival must be >= 0");
  }

  // Launch in (arrival, insertion) order: the simulator breaks same-time
  // ties by insertion, so the stream is deterministic for a fixed input.
  std::vector<std::size_t> order(instances.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return instances[a].arrival < instances[b].arrival;
                   });

  // Resolve the worker pool once: explicit config pool, else the
  // environment's shard pool, else an owned pool for the duration of the
  // call when anything here can use one.
  SessionEnvironment stream_env = env;
  ThreadPool* workers =
      config.workers != nullptr ? config.workers : env.shard_workers;
  std::unique_ptr<ThreadPool> owned_pool;
  const bool wants_workers =
      env.shards > 1 ||
      (config.compute_slowdowns && instances.size() > 1);
  if (workers == nullptr && wants_workers) {
    owned_pool = std::make_unique<ThreadPool>();
    workers = owned_pool.get();
  }
  if (stream_env.shards > 1 && stream_env.shard_workers == nullptr) {
    stream_env.shard_workers = workers;
  }

  SimulationSession session(stream_env);
  StreamOutcome stream;
  stream.workflows.resize(instances.size());
  // Per-instance completion flags instead of one shared counter: shard
  // workers complete disjoint instances concurrently, and disjoint bytes
  // keep the bookkeeping race-free without atomics.
  std::vector<unsigned char> done(instances.size(), 0);
  const std::size_t shards = session.shard_count();
  std::size_t next_shard = 0;
  for (const std::size_t i : order) {
    const WorkflowInstance& instance = instances[i];
    WorkflowResult& slot = stream.workflows[i];
    slot.name = instance.name;
    slot.arrival = instance.arrival;
    auto completion = [&slot, flag = done.data() + i](
                          StrategyOutcome outcome) {
      slot.finish = outcome.makespan;
      slot.makespan = outcome.makespan - slot.arrival;
      slot.wait = outcome.contention_wait;
      slot.max_wait = outcome.max_contention_wait;
      slot.outcome = std::move(outcome);
      *flag = 1;
    };
    if (shards == 1) {
      // Serial path, unchanged since PR 2: launch directly so the event
      // sequence — and therefore the outcome — is bit-identical to every
      // prior release.
      driver.launch(session, *instance.dag, *instance.estimates,
                    *instance.actual,
                    LaunchOptions{instance.arrival, instance.priority},
                    std::move(completion));
    } else {
      // Sharded path: pin the instance to a home shard (round-robin in
      // launch order — deterministic) and launch it there in a posted
      // event at its arrival, when the launching thread is bound to the
      // shard and session.pool() resolves to the shard's machines.
      const std::size_t home = next_shard;
      next_shard = (next_shard + 1) % shards;
      session.post(home, instance.arrival,
                   [&session, &driver, &instance,
                    completion = std::move(completion)]() mutable {
                     driver.launch(
                         session, *instance.dag, *instance.estimates,
                         *instance.actual,
                         LaunchOptions{instance.arrival, instance.priority},
                         std::move(completion));
                   });
    }
  }
  session.run();
  AHEFT_ASSERT(std::all_of(done.begin(), done.end(),
                           [](unsigned char flag) { return flag != 0; }),
               "stream ended with unfinished workflows");

  if (config.compute_slowdowns) {
    // Each solo run is an independent single-workflow simulation writing
    // only its own slot, so the reduction is order-independent and the
    // fan-out changes nothing but wall time. Failed workflows keep the
    // neutral slowdown 1 — a failure time over a solo makespan prices
    // nothing — and are excluded from the aggregates below anyway.
    parallel_for(workers, instances.size(), [&](std::size_t i) {
      if (stream.workflows[i].outcome.failed) {
        return;
      }
      const sim::Time solo = solo_makespan(env, driver, instances[i]);
      stream.workflows[i].slowdown =
          solo > 0.0 ? stream.workflows[i].makespan / solo : 1.0;
    });
  }

  sim::Time first_arrival = sim::kTimeInfinity;
  sim::Time last_finish = sim::kTimeZero;
  double sum_makespan = 0.0;
  double sum_slowdown = 0.0;
  std::vector<double> fairness_basis;
  fairness_basis.reserve(stream.workflows.size());
  for (const WorkflowResult& wf : stream.workflows) {
    first_arrival = std::min(first_arrival, wf.arrival);
    last_finish = std::max(last_finish, wf.finish);
    stream.merge(wf.outcome);
    stream.max_wait = std::max(stream.max_wait, wf.wait);
    if (wf.outcome.failed) {
      ++stream.failed_workflows;
      continue;  // timing statistics price completed work only
    }
    ++stream.completed_workflows;
    sum_makespan += wf.makespan;
    stream.max_makespan = std::max(stream.max_makespan, wf.makespan);
    sum_slowdown += wf.slowdown;
    stream.max_slowdown = std::max(stream.max_slowdown, wf.slowdown);
    fairness_basis.push_back(config.compute_slowdowns ? wf.slowdown
                                                      : wf.makespan);
  }
  const auto count = static_cast<double>(stream.workflows.size());
  const auto completed = static_cast<double>(stream.completed_workflows);
  stream.span = last_finish - first_arrival;
  stream.throughput = stream.span > 0.0 ? completed / stream.span : 0.0;
  if (stream.completed_workflows > 0) {
    stream.mean_makespan = sum_makespan / completed;
    stream.mean_slowdown = sum_slowdown / completed;
    stream.jain_fairness = jain_fairness_index(fairness_basis);
  }
  stream.mean_wait = stream.contention_wait / count;
  const double spent =
      stream.useful_work + stream.lost_work + stream.checkpoint_overhead;
  stream.goodput = spent > 0.0 ? stream.useful_work / spent : 1.0;
  return stream;
}

}  // namespace aheft::core
