// Multi-DAG workflow streams: many independent workflow instances
// submitted to one shared session at their arrival times.
//
// The paper evaluates strategies on one workflow at a time; a production
// grid serves a stream of competing jobs. The stream layer consumes
// arrival records (typically CompiledScenario::job_arrivals), launches
// one strategy execution per instance on the shared simulator clock, and
// lets them contend for the same machines through the session's
// contention policy (FCFS / priority / fair share; see
// SessionEnvironment::contention_policy). Per-workflow makespans,
// slowdowns (vs an uncontended solo run of the same instance at the same
// release time), and contention waits plus aggregate throughput and
// Jain's fairness index land in a StreamOutcome, whose counters are the
// merge() of its workflows' outcomes.
#ifndef AHEFT_CORE_WORKFLOW_STREAM_H_
#define AHEFT_CORE_WORKFLOW_STREAM_H_

#include <string>
#include <vector>

#include "core/outcome.h"
#include "core/strategy.h"

namespace aheft::core {

/// One workflow instance of the stream. The DAG and cost providers must
/// outlive the stream run.
struct WorkflowInstance {
  std::string name;
  const dag::Dag* dag = nullptr;
  const grid::CostProvider* estimates = nullptr;
  const grid::CostProvider* actual = nullptr;
  sim::Time arrival = sim::kTimeZero;
  /// Weight under the session's contention policy (see LaunchOptions).
  double priority = 1.0;
};

struct WorkflowResult {
  std::string name;
  sim::Time arrival = sim::kTimeZero;
  sim::Time finish = sim::kTimeZero;    ///< completion on the shared clock
  sim::Time makespan = sim::kTimeZero;  ///< finish - arrival (response time)
  /// Contended makespan over the instance's solo makespan in the same
  /// environment (>= ~1 under contention; exactly 1 when not computed).
  double slowdown = 1.0;
  /// Machine time this workflow spent waiting on competitors (total and
  /// worst single acquisition) under the session's contention policy.
  double wait = 0.0;
  double max_wait = 0.0;
  StrategyOutcome outcome;
};

/// The stream's RunCounters are the merge() of every workflow's outcome,
/// folded in arrival-index order: summed counters and waits, and the
/// worst single acquisition wait of any workflow.
struct StreamOutcome : RunCounters {
  std::vector<WorkflowResult> workflows;  ///< arrival order
  sim::Time span = sim::kTimeZero;        ///< max finish - min arrival
  double throughput = 0.0;                ///< workflows per unit of span
  double mean_makespan = 0.0;
  double max_makespan = 0.0;
  double mean_slowdown = 1.0;
  double max_slowdown = 1.0;
  /// Cross-workflow starvation picture: average / worst per-workflow
  /// contention wait, and Jain's fairness index over the per-workflow
  /// slowdowns (over makespans when slowdowns were not computed) — 1
  /// means every workflow was degraded equally.
  double mean_wait = 0.0;
  double max_wait = 0.0;
  double jain_fairness = 1.0;
  /// Resilience aggregate. Workflows that failed terminally (an active
  /// resilience config's DepartureAction::kFail, the revocation cap, or
  /// no machine left to requeue on) are excluded from the makespan /
  /// slowdown / fairness statistics above and from the throughput
  /// numerator; their counters and contention waits still count. Goodput
  /// is useful over total machine-seconds spent (useful + lost +
  /// checkpoint overhead; 1 when none were spent).
  std::size_t completed_workflows = 0;
  std::size_t failed_workflows = 0;
  double goodput = 1.0;
};

struct StreamConfig {
  /// Also run every instance solo (same environment and release, empty
  /// session) to price the contention: slowdown = contended / solo.
  /// The solo runs are independent single-workflow simulations, so they
  /// fan out on a thread pool (order-independent: each lands in its own
  /// result slot) instead of doubling the stream's wall time serially.
  bool compute_slowdowns = true;
  /// Workers for the solo fan-out and, when the environment asks for
  /// shards but names no shard_workers, for the epoch barriers too.
  /// Null makes the stream create a hardware-sized pool of its own for
  /// the duration of the call.
  ThreadPool* workers = nullptr;
};

/// Runs `instances` through `driver` inside one session over `env`.
/// Instances are launched in (arrival, insertion) order, which makes the
/// whole stream deterministic for a fixed input. The driver keeps the
/// per-launch state alive, so one driver can serve the stream run plus
/// the solo baselines.
///
/// With SessionEnvironment::shards > 1 the session's machines are
/// partitioned across parallel event-loop shards and each instance is
/// pinned round-robin (in arrival order) to one shard: it contends only
/// for that shard's machines, and the shards tick in lock-step epochs on
/// the thread pool. Trace recorders and history repositories compose with
/// the sharded run: each shard writes a private stamped sink the session
/// merges at tick barriers in (time, origin shard, origin seq) order. A
/// fixed shard count gives bit-identical outcomes — and byte-identical
/// merged sinks — run to run; shards = 1 is bit-identical to the
/// historical serial stream, sinks included.
[[nodiscard]] StreamOutcome run_workflow_stream(
    const SessionEnvironment& env, StrategyDriver& driver,
    std::vector<WorkflowInstance> instances, StreamConfig config = {});

}  // namespace aheft::core

#endif  // AHEFT_CORE_WORKFLOW_STREAM_H_
