// Strategy-driver / session / multi-DAG workflow-stream tests:
// cross-workflow contention under every contention policy, arrival-time
// ordering, wait-time accounting, merged outcome counters, and stream
// determinism.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/contention_policy.h"
#include "core/dynamic_scheduler.h"
#include "core/execution_engine.h"
#include "core/resource_ledger.h"
#include "core/strategy.h"
#include "core/workflow_stream.h"
#include "exp/case.h"
#include "exp/sweeps.h"
#include "helpers.h"

namespace aheft::core {
namespace {

/// A two-job chain (10 + 5) on one always-on resource.
struct ChainCase {
  dag::Dag dag{"chain"};
  grid::ResourcePool pool;
  grid::MachineModel model{2, 1};

  ChainCase() {
    dag.add_job("a");
    dag.add_job("b");
    dag.add_edge(0, 1, 0.0);
    dag.finalize();
    pool.add(grid::Resource{.name = "only"});
    model.set_compute_cost(0, 0, 10.0);
    model.set_compute_cost(1, 0, 5.0);
  }
};

/// A long chain (6 x 10) and a short single job (10) competing for one
/// machine: the canonical starvation scenario the contention policies
/// must arbitrate differently.
struct CollisionCase {
  dag::Dag long_dag{"long"};
  dag::Dag short_dag{"short"};
  grid::ResourcePool pool;
  grid::MachineModel long_model{6, 1};
  grid::MachineModel short_model{1, 1};

  CollisionCase() {
    for (int i = 0; i < 6; ++i) {
      long_dag.add_job(std::string("l").append(std::to_string(i)));
      if (i > 0) {
        long_dag.add_edge(i - 1, i, 0.0);
      }
    }
    long_dag.finalize();
    short_dag.add_job("s0");
    short_dag.finalize();
    pool.add(grid::Resource{.name = "only"});
    for (dag::JobId i = 0; i < 6; ++i) {
      long_model.set_compute_cost(i, 0, 10.0);
    }
    short_model.set_compute_cost(0, 0, 10.0);
  }

  /// Long workflow first (it launches first and wins the machine),
  /// short second; both arrive at t = 0.
  [[nodiscard]] std::vector<WorkflowInstance> instances(
      double long_priority = 1.0, double short_priority = 1.0) const {
    std::vector<WorkflowInstance> result(2);
    result[0].name = "long";
    result[0].dag = &long_dag;
    result[0].estimates = &long_model;
    result[0].actual = &long_model;
    result[0].priority = long_priority;
    result[1].name = "short";
    result[1].dag = &short_dag;
    result[1].estimates = &short_model;
    result[1].actual = &short_model;
    result[1].priority = short_priority;
    return result;
  }
};

// --------------------------------------------------------------- session --

TEST(Session, RejectsMissingPool) {
  EXPECT_THROW(SimulationSession{SessionEnvironment{}},
               std::invalid_argument);
}

TEST(Session, LaunchIntoForeignPoolSessionIsRejected) {
  const ChainCase c;
  grid::ResourcePool other;
  other.add(grid::Resource{});
  SessionEnvironment env;
  env.pool = &other;
  SimulationSession session(env);
  AdaptivePlanner planner(c.dag, c.model, c.model, c.pool, {});
  EXPECT_THROW(planner.launch(session, sim::kTimeZero, {}),
               std::invalid_argument);
}

// ------------------------------------------------------------ contention --

/// Two identical chains on a single machine must serialize: the winner
/// runs uncontended, the loser waits for the full winner makespan.
TEST(Stream, ContentionSerializesOneMachine) {
  const ChainCase c;
  const std::unique_ptr<StrategyDriver> driver =
      make_strategy_driver(StrategyKind::kStaticHeft);
  SessionEnvironment env;
  env.pool = &c.pool;

  std::vector<WorkflowInstance> instances(2);
  for (std::size_t i = 0; i < 2; ++i) {
    instances[i].name = i == 0 ? "first" : "second";
    instances[i].dag = &c.dag;
    instances[i].estimates = &c.model;
    instances[i].actual = &c.model;
    instances[i].arrival = sim::kTimeZero;
  }
  const StreamOutcome outcome =
      run_workflow_stream(env, *driver, instances);

  ASSERT_EQ(outcome.workflows.size(), 2u);
  EXPECT_DOUBLE_EQ(outcome.workflows[0].makespan, 15.0);
  EXPECT_DOUBLE_EQ(outcome.workflows[1].makespan, 30.0);
  EXPECT_DOUBLE_EQ(outcome.span, 30.0);
  EXPECT_DOUBLE_EQ(outcome.workflows[0].slowdown, 1.0);
  EXPECT_DOUBLE_EQ(outcome.workflows[1].slowdown, 2.0);
  EXPECT_DOUBLE_EQ(outcome.mean_slowdown, 1.5);
  EXPECT_DOUBLE_EQ(outcome.max_slowdown, 2.0);
  EXPECT_DOUBLE_EQ(outcome.throughput, 2.0 / 30.0);
  // Wait accounting: the winner never waited; the loser's first job
  // waited out the winner's full 15-unit makespan, its second none.
  EXPECT_DOUBLE_EQ(outcome.workflows[0].wait, 0.0);
  EXPECT_DOUBLE_EQ(outcome.workflows[1].wait, 15.0);
  EXPECT_DOUBLE_EQ(outcome.workflows[1].max_wait, 15.0);
  EXPECT_DOUBLE_EQ(outcome.mean_wait, 7.5);
  EXPECT_DOUBLE_EQ(outcome.max_wait, 15.0);
  // Jain's index over the slowdowns {1, 2}: 9 / (2 * 5).
  EXPECT_DOUBLE_EQ(outcome.jain_fairness, 0.9);
}

/// The dynamic strategy contends through the same arbitration.
TEST(Stream, DynamicWorkflowsContendToo) {
  const ChainCase c;
  const std::unique_ptr<StrategyDriver> driver =
      make_strategy_driver(StrategyKind::kDynamic);
  SessionEnvironment env;
  env.pool = &c.pool;

  std::vector<WorkflowInstance> instances(2);
  for (std::size_t i = 0; i < 2; ++i) {
    instances[i].name = "wf";
    instances[i].dag = &c.dag;
    instances[i].estimates = &c.model;
    instances[i].actual = &c.model;
    instances[i].arrival = sim::kTimeZero;
  }
  const StreamOutcome outcome =
      run_workflow_stream(env, *driver, instances);
  EXPECT_DOUBLE_EQ(outcome.span, 30.0);
  EXPECT_DOUBLE_EQ(outcome.max_makespan, 30.0);
}

// ----------------------------------------------------- contention policy --

SessionEnvironment policy_env(const grid::ResourcePool& pool,
                              const std::string& policy) {
  SessionEnvironment env;
  env.pool = &pool;
  env.contention_policy = policy;
  return env;
}

TEST(ContentionPolicy, StringRoundTrip) {
  for (const ContentionPolicyKind kind :
       {ContentionPolicyKind::kFcfs, ContentionPolicyKind::kPriority,
        ContentionPolicyKind::kFairShare}) {
    const auto parsed = contention_policy_from_string(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
    EXPECT_EQ(make_contention_policy(kind)->kind(), kind);
    EXPECT_EQ(make_contention_policy(kind)->name(), to_string(kind));
  }
  EXPECT_FALSE(contention_policy_from_string("round-robin").has_value());
}

TEST(ContentionPolicy, RegistryKnowsBuiltinsAndRejectsUnknown) {
  ContentionPolicyRegistry& registry = ContentionPolicyRegistry::instance();
  for (const char* name : {"fcfs", "priority", "fair-share"}) {
    EXPECT_TRUE(registry.contains(name));
    EXPECT_EQ(registry.create(name)->name(), name);
  }
  EXPECT_FALSE(registry.contains("round-robin"));
  try {
    (void)registry.create("round-robin");
    FAIL() << "unknown policy must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("fair-share"),
              std::string::npos);
  }
}

TEST(ContentionPolicy, StrategyFromStringRoundTrips) {
  for (const StrategyKind kind :
       {StrategyKind::kStaticHeft, StrategyKind::kAdaptiveAheft,
        StrategyKind::kDynamic}) {
    const auto parsed = strategy_from_string(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(strategy_from_string("minmin").has_value());
}

TEST(ContentionPolicy, SessionRejectsUnknownPolicyAndBadPriority) {
  const ChainCase c;
  EXPECT_THROW(SimulationSession{policy_env(c.pool, "round-robin")},
               std::invalid_argument);
  SimulationSession session(policy_env(c.pool, "fcfs"));
  ExecutionEngine engine(session, c.dag, c.model);
  EXPECT_THROW(session.add_participant(nullptr), std::invalid_argument);
  EXPECT_THROW(ExecutionEngine(session, c.dag, c.model, 0.0),
               std::invalid_argument);
  EXPECT_THROW(ExecutionEngine(session, c.dag, c.model, -2.0),
               std::invalid_argument);
}

void expect_same_counters(const RunCounters& a, const RunCounters& b) {
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.adoptions, b.adoptions);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.contention_wait, b.contention_wait);
  EXPECT_EQ(a.max_contention_wait, b.max_contention_wait);
  EXPECT_EQ(a.revoked_jobs, b.revoked_jobs);
  EXPECT_EQ(a.lost_work, b.lost_work);
  EXPECT_EQ(a.checkpoint_overhead, b.checkpoint_overhead);
  EXPECT_EQ(a.useful_work, b.useful_work);
}

/// A stream's counters are its workflows' outcomes merged in arrival
/// order: every counter sums, the worst single wait takes the max.
void expect_counters_merge_workflows(const StreamOutcome& stream) {
  RunCounters folded;
  for (const WorkflowResult& wf : stream.workflows) {
    const RunCounters& c = wf.outcome;
    folded.evaluations += c.evaluations;
    folded.adoptions += c.adoptions;
    folded.restarts += c.restarts;
    folded.contention_wait += c.contention_wait;
    folded.max_contention_wait =
        std::max(folded.max_contention_wait, c.max_contention_wait);
    folded.revoked_jobs += c.revoked_jobs;
    folded.lost_work += c.lost_work;
    folded.checkpoint_overhead += c.checkpoint_overhead;
    folded.useful_work += c.useful_work;
  }
  expect_same_counters(stream, folded);
}

/// FCFS convoy: the long workflow launches first and keeps the machine
/// through its entire chain; the short workflow starves behind it, which
/// the wait metrics and Jain's index must price.
TEST(ContentionPolicy, FcfsStarvesTheShortWorkflow) {
  const CollisionCase c;
  const std::unique_ptr<StrategyDriver> driver =
      make_strategy_driver(StrategyKind::kStaticHeft);
  const StreamOutcome outcome = run_workflow_stream(
      policy_env(c.pool, "fcfs"), *driver, c.instances());
  ASSERT_EQ(outcome.workflows.size(), 2u);
  EXPECT_DOUBLE_EQ(outcome.workflows[0].makespan, 60.0);  // long: solo pace
  EXPECT_DOUBLE_EQ(outcome.workflows[1].makespan, 70.0);  // short: starved
  EXPECT_DOUBLE_EQ(outcome.workflows[0].wait, 0.0);
  EXPECT_DOUBLE_EQ(outcome.workflows[1].wait, 60.0);
  EXPECT_DOUBLE_EQ(outcome.workflows[1].slowdown, 7.0);
  EXPECT_DOUBLE_EQ(outcome.max_slowdown, 7.0);
  EXPECT_DOUBLE_EQ(outcome.max_wait, 60.0);
  // The stream's counters merge the workflows': the short workflow's
  // single 60-unit wait is both the total and the worst acquisition.
  expect_counters_merge_workflows(outcome);
  EXPECT_DOUBLE_EQ(outcome.contention_wait, 60.0);
  EXPECT_DOUBLE_EQ(outcome.max_contention_wait, 60.0);
  EXPECT_DOUBLE_EQ(outcome.mean_wait, 30.0);
}

/// Fair share breaks the convoy once the short workflow's stretch (wall
/// time over its own solo makespan) runs past the deadband: it bounds
/// the worst slowdown and strictly improves Jain's index over FCFS.
TEST(ContentionPolicy, FairShareBoundsMaxSlowdown) {
  const CollisionCase c;
  const std::unique_ptr<StrategyDriver> driver =
      make_strategy_driver(StrategyKind::kStaticHeft);
  const StreamOutcome fcfs = run_workflow_stream(
      policy_env(c.pool, "fcfs"), *driver, c.instances());
  const StreamOutcome fair = run_workflow_stream(
      policy_env(c.pool, "fair-share"), *driver, c.instances());
  ASSERT_EQ(fair.workflows.size(), 2u);
  // The short workflow is admitted at t = 30 (stretch 3 > deadband),
  // the long one resumes afterwards.
  EXPECT_DOUBLE_EQ(fair.workflows[1].makespan, 40.0);
  EXPECT_DOUBLE_EQ(fair.workflows[1].wait, 30.0);
  EXPECT_DOUBLE_EQ(fair.workflows[0].makespan, 70.0);
  EXPECT_DOUBLE_EQ(fair.workflows[0].wait, 10.0);
  EXPECT_LT(fair.max_slowdown, fcfs.max_slowdown);
  EXPECT_GT(fair.jain_fairness, fcfs.jain_fairness);
}

/// Strict priorities displace regardless of stretch: a high-priority
/// short workflow preempts the queue order immediately, a low-priority
/// one starves exactly like FCFS.
TEST(ContentionPolicy, PriorityArbitratesByRank) {
  const CollisionCase c;
  const std::unique_ptr<StrategyDriver> driver =
      make_strategy_driver(StrategyKind::kStaticHeft);
  const StreamOutcome high = run_workflow_stream(
      policy_env(c.pool, "priority"), *driver,
      c.instances(/*long=*/1.0, /*short=*/10.0));
  EXPECT_DOUBLE_EQ(high.workflows[1].makespan, 20.0);
  EXPECT_DOUBLE_EQ(high.workflows[1].wait, 10.0);
  EXPECT_DOUBLE_EQ(high.workflows[0].makespan, 70.0);

  const StreamOutcome low = run_workflow_stream(
      policy_env(c.pool, "priority"), *driver,
      c.instances(/*long=*/10.0, /*short=*/1.0));
  EXPECT_DOUBLE_EQ(low.workflows[0].makespan, 60.0);
  EXPECT_DOUBLE_EQ(low.workflows[1].makespan, 70.0);
  EXPECT_DOUBLE_EQ(low.workflows[1].wait, 60.0);
}

/// Identical workflows arriving at the same instant: every policy must
/// break the tie the same deterministic way (launch order) and reproduce
/// it bit-identically across runs.
TEST(ContentionPolicy, DeterministicTieBreakForIdenticalArrivals) {
  const ChainCase c;
  for (const char* policy : {"fcfs", "priority", "fair-share"}) {
    const std::unique_ptr<StrategyDriver> driver =
        make_strategy_driver(StrategyKind::kStaticHeft);
    std::vector<WorkflowInstance> instances(2);
    for (std::size_t i = 0; i < 2; ++i) {
      instances[i].name = i == 0 ? "first" : "second";
      instances[i].dag = &c.dag;
      instances[i].estimates = &c.model;
      instances[i].actual = &c.model;
    }
    const StreamOutcome a = run_workflow_stream(policy_env(c.pool, policy),
                                                *driver, instances);
    const StreamOutcome b = run_workflow_stream(policy_env(c.pool, policy),
                                                *driver, instances);
    ASSERT_EQ(a.workflows.size(), 2u) << policy;
    // The first-launched workflow wins the machine under every policy
    // (equal priorities and equal stretch mean no displacement).
    EXPECT_DOUBLE_EQ(a.workflows[0].makespan, 15.0) << policy;
    EXPECT_DOUBLE_EQ(a.workflows[1].makespan, 30.0) << policy;
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_DOUBLE_EQ(a.workflows[i].makespan, b.workflows[i].makespan)
          << policy;
      EXPECT_DOUBLE_EQ(a.workflows[i].wait, b.workflows[i].wait) << policy;
    }
  }
}

/// The default session policy is FCFS, and an explicit "fcfs" selection
/// reproduces the default stream results bit-identically (the acquisition
/// API is a pure refactor of the PR 2 behavior under FCFS).
TEST(ContentionPolicy, ExplicitFcfsMatchesDefaultBitIdentically) {
  exp::CaseSpec base;
  base.app = exp::AppKind::kRandom;
  base.size = 20;
  base.ccr = 1.0;
  base.dynamics = {5, 200.0, 0.2};
  base.seed = 4242;
  base.scenario_source = "bursty";
  base.react_to_variance = true;
  base.horizon_factor = 2.0;
  base.stream_jobs = 4;
  base.stream_interarrival = 150.0;
  exp::CaseSpec explicit_fcfs = base;
  explicit_fcfs.contention_policy = "fcfs";
  const exp::StreamCaseResult a = exp::run_stream_case(base);
  const exp::StreamCaseResult b = exp::run_stream_case(explicit_fcfs);
  EXPECT_EQ(a.heft.makespans, b.heft.makespans);
  EXPECT_EQ(a.aheft.makespans, b.aheft.makespans);
  EXPECT_EQ(a.minmin.makespans, b.minmin.makespans);
  EXPECT_EQ(a.heft.waits, b.heft.waits);
  EXPECT_EQ(a.aheft.waits, b.aheft.waits);
  EXPECT_EQ(a.minmin.waits, b.minmin.waits);
}

TEST(ContentionPolicy, SetContentionPolicyAppliesAndValidates) {
  std::vector<exp::CaseSpec> specs(2);
  exp::set_contention_policy(specs, "fair-share");
  EXPECT_EQ(specs[0].contention_policy, "fair-share");
  EXPECT_EQ(specs[1].contention_policy, "fair-share");
  EXPECT_THROW(exp::set_contention_policy(specs, "round-robin"),
               std::invalid_argument);
}

TEST(ContentionPolicy, StreamPrioritiesCycleOverInstances) {
  exp::CaseSpec spec;
  spec.app = exp::AppKind::kRandom;
  spec.size = 10;
  spec.dynamics = {4, 500.0, 0.0};
  spec.seed = 11;
  spec.stream_jobs = 5;
  spec.stream_priorities = {4.0, 1.0};
  const exp::CaseEnvironment env = exp::build_case_environment(spec);
  const exp::StreamSetup setup = exp::build_stream_setup(spec, env);
  ASSERT_EQ(setup.instances.size(), 5u);
  for (std::size_t k = 0; k < setup.instances.size(); ++k) {
    EXPECT_DOUBLE_EQ(setup.instances[k].priority, k % 2 == 0 ? 4.0 : 1.0);
  }
}

// ------------------------------------------- two-phase dynamic dispatch --

/// A wide just-in-time workflow (6 independent jobs) books one machine
/// end to end under FCFS (instant advance booking), convoying a short
/// workflow behind its whole span. Two-phase dispatch keeps the claims
/// displaceable, so fair share lets the short workflow in earlier.
struct WideDynamicCase {
  dag::Dag wide_dag{"wide"};
  dag::Dag short_dag{"short"};
  grid::ResourcePool pool;
  grid::MachineModel wide_model{6, 1};
  grid::MachineModel short_model{1, 1};

  WideDynamicCase() {
    for (int i = 0; i < 6; ++i) {
      wide_dag.add_job(std::string("w").append(std::to_string(i)));
    }
    wide_dag.finalize();
    short_dag.add_job("s0");
    short_dag.finalize();
    pool.add(grid::Resource{.name = "only"});
    for (dag::JobId i = 0; i < 6; ++i) {
      wide_model.set_compute_cost(i, 0, 10.0);
    }
    short_model.set_compute_cost(0, 0, 10.0);
  }

  [[nodiscard]] std::vector<WorkflowInstance> instances() const {
    std::vector<WorkflowInstance> result(2);
    result[0].name = "wide";
    result[0].dag = &wide_dag;
    result[0].estimates = &wide_model;
    result[0].actual = &wide_model;
    result[1].name = "short";
    result[1].dag = &short_dag;
    result[1].estimates = &short_model;
    result[1].actual = &short_model;
    return result;
  }
};

TEST(TwoPhaseDynamic, FcfsAdvanceBookingConvoysTheShortWorkflow) {
  const WideDynamicCase c;
  const std::unique_ptr<StrategyDriver> driver =
      make_strategy_driver(StrategyKind::kDynamic);
  const StreamOutcome outcome = run_workflow_stream(
      policy_env(c.pool, "fcfs"), *driver, c.instances());
  ASSERT_EQ(outcome.workflows.size(), 2u);
  // The wide workflow's first decision round books [0,60) in one go; the
  // short workflow lands behind the whole convoy.
  EXPECT_DOUBLE_EQ(outcome.workflows[0].makespan, 60.0);
  EXPECT_DOUBLE_EQ(outcome.workflows[1].makespan, 70.0);
  EXPECT_DOUBLE_EQ(outcome.workflows[1].wait, 60.0);
}

TEST(TwoPhaseDynamic, FairShareDisplacesHeldClaims) {
  const WideDynamicCase c;
  const std::unique_ptr<StrategyDriver> fcfs_driver =
      make_strategy_driver(StrategyKind::kDynamic);
  const StreamOutcome fcfs = run_workflow_stream(
      policy_env(c.pool, "fcfs"), *fcfs_driver, c.instances());
  const std::unique_ptr<StrategyDriver> fair_driver =
      make_strategy_driver(StrategyKind::kDynamic);
  const StreamOutcome fair = run_workflow_stream(
      policy_env(c.pool, "fair-share"), *fair_driver, c.instances());
  ASSERT_EQ(fair.workflows.size(), 2u);
  // Two-phase dispatch keeps the wide workflow's future slots held (not
  // committed), so once the short workflow's stretch passes the jump
  // threshold it starts ahead of the remaining claims.
  EXPECT_LT(fair.workflows[1].makespan, fcfs.workflows[1].makespan);
  EXPECT_GE(fair.workflows[0].makespan, 60.0);
  EXPECT_LT(fair.max_slowdown, fcfs.max_slowdown);
  EXPECT_GT(fair.jain_fairness, fcfs.jain_fairness);
  // The displaced machine still runs some job whenever work is ready:
  // total committed time is conserved.
  EXPECT_DOUBLE_EQ(fair.span, fcfs.span);
}

TEST(TwoPhaseDynamic, DeterministicUnderArbitratingPolicies) {
  const WideDynamicCase c;
  for (const char* policy : {"priority", "fair-share"}) {
    const std::unique_ptr<StrategyDriver> driver =
        make_strategy_driver(StrategyKind::kDynamic);
    const StreamOutcome a = run_workflow_stream(policy_env(c.pool, policy),
                                                *driver, c.instances());
    const StreamOutcome b = run_workflow_stream(policy_env(c.pool, policy),
                                                *driver, c.instances());
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_DOUBLE_EQ(a.workflows[i].makespan, b.workflows[i].makespan)
          << policy;
      EXPECT_DOUBLE_EQ(a.workflows[i].wait, b.workflows[i].wait) << policy;
    }
  }
}

// ------------------------------------------------- session-level ledger --

/// Minimal participant for driving the session's ledger API directly.
struct Probe : SessionParticipant {};

SessionEnvironment backfill_env(const grid::ResourcePool& pool,
                                bool backfill) {
  SessionEnvironment env;
  env.pool = &pool;
  env.backfill = backfill;
  return env;
}

TEST(SessionLedger, BackfillGrantsProvablyHarmlessHole) {
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "only"});
  Probe advance;
  Probe filler;

  // Without backfill: the FCFS floor parks the 5-unit job behind the
  // advance booking even though [0, 50) idles.
  {
    SimulationSession session(backfill_env(pool, false));
    session.add_participant(&advance);
    session.add_participant(&filler);
    ASSERT_DOUBLE_EQ(session.acquire(&advance, 0, 50.0, 10.0, 1), 50.0);
    session.commit(&advance, 0, 1, 50.0, 60.0);
    EXPECT_DOUBLE_EQ(session.acquire(&filler, 0, 0.0, 5.0, 1), 60.0);
  }
  // With backfill: the hole before the booking is granted.
  {
    SimulationSession session(backfill_env(pool, true));
    session.add_participant(&advance);
    session.add_participant(&filler);
    ASSERT_DOUBLE_EQ(session.acquire(&advance, 0, 50.0, 10.0, 1), 50.0);
    session.commit(&advance, 0, 1, 50.0, 60.0);
    EXPECT_DOUBLE_EQ(session.acquire(&filler, 0, 0.0, 5.0, 1), 0.0);
  }
}

TEST(SessionLedger, BackfillNeverDelaysAnEarlierRequest) {
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "only"});
  Probe advance;
  Probe earlier;
  Probe filler;
  SimulationSession session(backfill_env(pool, true));
  session.add_participant(&advance);
  session.add_participant(&earlier);
  session.add_participant(&filler);
  ASSERT_DOUBLE_EQ(session.acquire(&advance, 0, 50.0, 10.0, 1), 50.0);
  session.commit(&advance, 0, 1, 50.0, 60.0);
  // A queued request becomes feasible at t=2 but is too long for the
  // hole before the booking (2 + 55 > 50): its grant is the floor.
  const sim::Time earlier_grant = session.acquire(&earlier, 0, 2.0, 55.0, 1);
  EXPECT_DOUBLE_EQ(earlier_grant, 60.0);
  // A 5-unit filler would run [0, 5) — past the earlier request's
  // feasible start, so granting it could delay that request: refused.
  EXPECT_DOUBLE_EQ(session.acquire(&filler, 0, 0.0, 5.0, 1), 60.0);
  session.withdraw_all(&filler);
  // A 2-unit filler ends exactly when the earlier request could start:
  // provably harmless, granted the hole.
  EXPECT_DOUBLE_EQ(session.acquire(&filler, 0, 0.0, 2.0, 2), 0.0);
  // The earlier request's grant is unchanged by the backfilled entry.
  EXPECT_DOUBLE_EQ(session.acquire(&earlier, 0, 2.0, 55.0, 1),
                   earlier_grant);
}

TEST(SessionLedger, WithdrawPreservesWaitBaselines) {
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "only"});
  Probe owner;
  Probe competitor;
  SimulationSession session(backfill_env(pool, false));
  session.add_participant(&owner);
  session.add_participant(&competitor);
  ASSERT_DOUBLE_EQ(session.acquire(&competitor, 0, 0.0, 20.0, 1), 0.0);
  session.commit(&competitor, 0, 1, 0.0, 20.0);
  // The owner's work first became feasible at t=0 and was deferred.
  EXPECT_DOUBLE_EQ(session.acquire(&owner, 0, 0.0, 10.0, 7), 20.0);
  // A reschedule withdraws and re-registers the same work (same tag)
  // with a later feasible time; the wait clock must not restart.
  session.withdraw_all(&owner);
  EXPECT_DOUBLE_EQ(session.acquire(&owner, 0, 5.0, 10.0, 7), 20.0);
  session.commit(&owner, 0, 7, 20.0, 30.0);
  const ContentionStats stats = session.contention_stats(&owner);
  EXPECT_DOUBLE_EQ(stats.total_wait, 20.0);  // from t=0, not t=5
  EXPECT_DOUBLE_EQ(stats.max_wait, 20.0);
  EXPECT_EQ(stats.grants, 1u);
}

TEST(SessionLedger, RequestsBelowOwnCommittedWorkAreRaisedToItsEnd) {
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "only"});
  pool.add(grid::Resource{.name = "other"});
  Probe owner;
  Probe competitor;
  SimulationSession session(backfill_env(pool, false));
  session.add_participant(&owner);
  session.add_participant(&competitor);
  ASSERT_DOUBLE_EQ(session.acquire(&owner, 0, 0.0, 10.0, 1), 0.0);
  session.commit(&owner, 0, 1, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(session.ledger().committed_until_of(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(session.ledger().committed_until_of(0, 1), 0.0);

  // The owner's machine is busy with its own job until 10, whatever ready
  // time it asks with; the FCFS floor alone excludes its own windows.
  EXPECT_DOUBLE_EQ(session.peek(&owner, 0, 2.0, 5.0), 10.0);
  EXPECT_DOUBLE_EQ(session.acquire(&owner, 0, 2.0, 5.0, 2), 10.0);
  ASSERT_EQ(session.ledger().queue(0).size(), 1u);
  EXPECT_DOUBLE_EQ(session.ledger().queue(0)[0].ready, 10.0);
  EXPECT_DOUBLE_EQ(session.ledger().queue(0)[0].first_ready, 10.0);
  // A later ready time and another machine are left alone.
  EXPECT_DOUBLE_EQ(session.peek(&owner, 0, 12.0, 5.0), 12.0);
  EXPECT_DOUBLE_EQ(session.peek(&owner, 1, 2.0, 5.0), 2.0);
  // The competitor sees the owner's window as the FCFS floor.
  EXPECT_DOUBLE_EQ(session.peek(&competitor, 0, 2.0, 5.0), 10.0);

  // Starting at the raised time is no wait.
  session.commit(&owner, 0, 2, 10.0, 15.0);
  EXPECT_DOUBLE_EQ(session.contention_stats(&owner).total_wait, 0.0);

  // Truncating the last window shrinks the horizon to the cut.
  session.truncate_commit(&owner, 0, 2, 12.0);
  EXPECT_DOUBLE_EQ(session.ledger().committed_until_of(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(session.peek(&owner, 0, 2.0, 5.0), 12.0);
}

// ------------------------------------------------ participant slots --

TEST(SessionRegistration, UnregisteredOrForeignParticipantsThrow) {
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "only"});
  SimulationSession home(backfill_env(pool, false));
  SimulationSession other(backfill_env(pool, false));
  Probe stranger;
  EXPECT_THROW((void)home.acquire(&stranger, 0, 0.0, 1.0, 1),
               std::invalid_argument);
  EXPECT_THROW(home.commit(&stranger, 0, 1, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)home.acquire(nullptr, 0, 0.0, 1.0, 1),
               std::invalid_argument);
  // `mine` holds slot 0 of `home`; `theirs` holds slot 0 of `other`. The
  // slot number alone must not let `mine` act in `other`.
  Probe mine;
  Probe theirs;
  home.add_participant(&mine);
  other.add_participant(&theirs);
  EXPECT_THROW((void)other.acquire(&mine, 0, 0.0, 1.0, 1),
               std::invalid_argument);
  EXPECT_THROW(other.commit(&mine, 0, 1, 0.0, 1.0), std::invalid_argument);
  EXPECT_TRUE(other.ledger().queue(0).empty());
  // Each still acts in its own session.
  EXPECT_DOUBLE_EQ(home.acquire(&mine, 0, 0.0, 1.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(other.acquire(&theirs, 0, 0.0, 1.0, 1), 0.0);
  home.commit(&mine, 0, 1, 0.0, 1.0);
  EXPECT_EQ(home.contention_stats(&mine).grants, 1u);
  EXPECT_EQ(home.contention_stats(&theirs).grants, 0u);
}

TEST(SessionRegistration, RegisteringTwiceKeepsTheFirstPriority) {
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "only"});
  SimulationSession session(backfill_env(pool, false));
  Probe probe;
  Probe next;
  session.add_participant(&probe, 3.0);
  session.add_participant(&probe, 7.0);
  session.add_participant(&next);
  (void)session.acquire(&probe, 0, 0.0, 1.0, 1);
  (void)session.acquire(&next, 0, 0.0, 1.0, 1);
  const std::vector<ReservationEntry>& queue = session.ledger().queue(0);
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_DOUBLE_EQ(queue[0].priority, 3.0);
  // The duplicate registration took no slot: `next` is slot 1.
  EXPECT_EQ(queue[0].participant, 0u);
  EXPECT_EQ(queue[1].participant, 1u);
}

// ------------------------------------------------------ arrival ordering --

TEST(Stream, ArrivalTimesGateLaunches) {
  const ChainCase c;
  const std::unique_ptr<StrategyDriver> driver =
      make_strategy_driver(StrategyKind::kAdaptiveAheft);
  SessionEnvironment env;
  env.pool = &c.pool;

  // Add out of arrival order on purpose; results stay in insertion order
  // but launches happen by arrival, so the t=40 instance finds the
  // machine free and runs uncontended.
  std::vector<WorkflowInstance> instances(2);
  instances[0].name = "late";
  instances[0].dag = &c.dag;
  instances[0].estimates = &c.model;
  instances[0].actual = &c.model;
  instances[0].arrival = 40.0;
  instances[1].name = "early";
  instances[1].dag = &c.dag;
  instances[1].estimates = &c.model;
  instances[1].actual = &c.model;
  instances[1].arrival = 0.0;

  const StreamOutcome outcome =
      run_workflow_stream(env, *driver, instances);
  ASSERT_EQ(outcome.workflows.size(), 2u);
  const WorkflowResult& late = outcome.workflows[0];
  const WorkflowResult& early = outcome.workflows[1];
  EXPECT_DOUBLE_EQ(early.arrival, 0.0);
  EXPECT_DOUBLE_EQ(early.finish, 15.0);
  EXPECT_DOUBLE_EQ(late.arrival, 40.0);
  // No work may predate the arrival: the finish is release + makespan.
  EXPECT_DOUBLE_EQ(late.finish, 55.0);
  EXPECT_DOUBLE_EQ(late.makespan, 15.0);
  EXPECT_DOUBLE_EQ(late.slowdown, 1.0);
}

TEST(Stream, RejectsEmptyAndMalformedInstances) {
  const ChainCase c;
  const std::unique_ptr<StrategyDriver> driver =
      make_strategy_driver(StrategyKind::kStaticHeft);
  SessionEnvironment env;
  env.pool = &c.pool;
  EXPECT_THROW((void)run_workflow_stream(env, *driver, {}),
               std::invalid_argument);
  std::vector<WorkflowInstance> missing_dag(1);
  EXPECT_THROW((void)run_workflow_stream(env, *driver, missing_dag),
               std::invalid_argument);
}

// ---------------------------------------------------- stream determinism --

exp::CaseSpec stream_spec() {
  exp::CaseSpec spec;
  spec.app = exp::AppKind::kRandom;
  spec.size = 20;
  spec.ccr = 1.0;
  spec.dynamics = {5, 200.0, 0.2};
  spec.seed = 4242;
  spec.scenario_source = "bursty";
  spec.bursty.mean_calm = 250.0;
  spec.bursty.mean_burst = 100.0;
  spec.bursty.calm_arrival_mean = 400.0;
  spec.bursty.burst_arrival_mean = 50.0;
  spec.react_to_variance = true;
  spec.horizon_factor = 2.0;
  spec.stream_jobs = 4;
  spec.stream_interarrival = 150.0;
  return spec;
}

TEST(Stream, SameSeedIsBitIdentical) {
  const exp::StreamCaseResult a = exp::run_stream_case(stream_spec());
  const exp::StreamCaseResult b = exp::run_stream_case(stream_spec());
  ASSERT_EQ(a.workflows, 4u);
  EXPECT_EQ(a.heft.makespans, b.heft.makespans);
  EXPECT_EQ(a.aheft.makespans, b.aheft.makespans);
  EXPECT_EQ(a.minmin.makespans, b.minmin.makespans);
  EXPECT_EQ(a.heft.slowdowns, b.heft.slowdowns);
  EXPECT_EQ(a.aheft.adoptions, b.aheft.adoptions);
  EXPECT_DOUBLE_EQ(a.minmin.throughput, b.minmin.throughput);
}

TEST(Stream, DifferentSeedsDiffer) {
  const exp::StreamCaseResult a = exp::run_stream_case(stream_spec());
  exp::CaseSpec other = stream_spec();
  other.seed = 777;
  const exp::StreamCaseResult b = exp::run_stream_case(other);
  EXPECT_NE(a.aheft.makespans, b.aheft.makespans);
}

TEST(Stream, CaseProducesSaneAggregates) {
  const exp::StreamCaseResult result =
      exp::run_stream_case(stream_spec());
  for (const exp::StreamStrategySummary* s :
       {&result.heft, &result.aheft, &result.minmin}) {
    ASSERT_EQ(s->makespans.size(), 4u);
    ASSERT_EQ(s->slowdowns.size(), 4u);
    EXPECT_GT(s->span, 0.0);
    EXPECT_GT(s->throughput, 0.0);
    EXPECT_GT(s->mean_makespan, 0.0);
    EXPECT_GE(s->max_makespan, s->mean_makespan);
    EXPECT_DOUBLE_EQ(
        *std::max_element(s->makespans.begin(), s->makespans.end()),
        s->max_makespan);
    // Slowdowns can dip below 1 only marginally (a competitor's arrival
    // can perturb tie-breaks), never collapse.
    for (const double slowdown : s->slowdowns) {
      EXPECT_GT(slowdown, 0.5);
    }
    expect_counters_merge_workflows(*s);
  }

  // The experiment layer's summary is the core stream outcome itself, so
  // it reports exactly the totals of a direct run over the same
  // instances.
  const exp::CaseSpec spec = stream_spec();
  const exp::CaseEnvironment env = exp::build_case_environment(spec);
  const exp::StreamSetup setup = exp::build_stream_setup(spec, env);
  const exp::StreamStrategySummary summary = exp::run_stream_strategy(
      spec, env, setup, StrategyKind::kAdaptiveAheft);

  SessionEnvironment session;

  session.pool = &env.scenario.pool;
  session.load = env.scenario.load.empty() ? nullptr : &env.scenario.load;
  StrategyConfig config;
  config.planner.scheduler = spec.scheduler;
  config.planner.react_to_variance = spec.react_to_variance;
  const std::unique_ptr<StrategyDriver> driver =
      make_strategy_driver(StrategyKind::kAdaptiveAheft, config);
  const StreamOutcome direct =
      run_workflow_stream(session, *driver, setup.instances);

  EXPECT_GT(direct.evaluations, 0u);  // the totals are not all zero
  expect_counters_merge_workflows(direct);
  expect_same_counters(summary, direct);
  EXPECT_EQ(summary.completed_workflows, direct.completed_workflows);
  EXPECT_EQ(summary.failed_workflows, direct.failed_workflows);
  EXPECT_EQ(summary.mean_wait, direct.mean_wait);
  EXPECT_EQ(summary.max_wait, direct.max_wait);
  EXPECT_EQ(summary.goodput, direct.goodput);
  ASSERT_EQ(summary.makespans.size(), direct.workflows.size());
  for (std::size_t i = 0; i < direct.workflows.size(); ++i) {
    EXPECT_EQ(summary.makespans[i], direct.workflows[i].makespan);
  }
}

/// Specs carrying a multi-workflow axis must not slip into the
/// single-DAG path, where the axis would silently shift the environment.
TEST(Stream, RunCaseRejectsMultiWorkflowSpecs) {
  EXPECT_THROW((void)exp::run_case(stream_spec()), std::invalid_argument);
}

/// A stream of one workflow must reduce exactly to the single-DAG case.
TEST(Stream, SingletonStreamMatchesSingleDagRun) {
  exp::CaseSpec spec = stream_spec();
  spec.stream_jobs = 1;
  spec.run_dynamic = true;
  spec.horizon_factor = 4.0;
  const exp::StreamCaseResult stream = exp::run_stream_case(spec);
  const exp::CaseResult single = exp::run_case(spec);
  ASSERT_EQ(stream.workflows, 1u);
  EXPECT_DOUBLE_EQ(stream.aheft.makespans[0], single.aheft_makespan);
  EXPECT_DOUBLE_EQ(stream.minmin.makespans[0], single.minmin_makespan);
  EXPECT_DOUBLE_EQ(stream.heft.makespans[0], single.heft_makespan);
}

// ------------------------------------------------------- sharded streams --

/// Four machines, six three-job chains with staggered arrivals, uniform
/// unit-ish costs so any machine of an instance's home shard is a valid
/// placement. Shared const DAG/model across instances (what the sharded
/// stream also relies on in production use).
struct ShardedCase {
  dag::Dag dag{"chain3"};
  grid::ResourcePool pool;
  grid::MachineModel model{3, 4};

  ShardedCase() {
    for (int i = 0; i < 3; ++i) {
      dag.add_job(std::string("j").append(std::to_string(i)));
      if (i > 0) {
        dag.add_edge(i - 1, i, 1.0);
      }
    }
    dag.finalize();
    for (int m = 0; m < 4; ++m) {
      pool.add(grid::Resource{
        .name = std::string("m").append(std::to_string(m))});
    }
    for (dag::JobId i = 0; i < 3; ++i) {
      for (grid::ResourceId r = 0; r < 4; ++r) {
        model.set_compute_cost(i, r, 2.0 + 0.25 * static_cast<double>(r));
      }
    }
  }

  [[nodiscard]] std::vector<WorkflowInstance> instances() const {
    std::vector<WorkflowInstance> result(6);
    for (std::size_t i = 0; i < result.size(); ++i) {
      result[i].name = std::string("wf").append(std::to_string(i));
      result[i].dag = &dag;
      result[i].estimates = &model;
      result[i].actual = &model;
      result[i].arrival = 0.5 * static_cast<double>(i);
    }
    return result;
  }

  [[nodiscard]] StreamOutcome run(StrategyKind kind, std::size_t shards,
                                  ThreadPool* workers,
                                  sim::TraceRecorder* trace = nullptr,
                                  grid::PerformanceHistoryRepository* history =
                                      nullptr) const {
    SessionEnvironment env;
    env.pool = &pool;
    env.shards = shards;
    env.shard_workers = workers;
    env.trace = trace;
    env.history = history;
    const auto driver = make_strategy_driver(kind);
    StreamConfig config;
    config.workers = workers;
    return run_workflow_stream(env, *driver, instances(), config);
  }
};

/// Exact equality over every numeric field of two stream outcomes — the
/// twin-run byte comparison (EXPECT_EQ on doubles is bitwise-exact for
/// non-NaN values).
void expect_outcomes_identical(const StreamOutcome& a,
                               const StreamOutcome& b) {
  ASSERT_EQ(a.workflows.size(), b.workflows.size());
  for (std::size_t i = 0; i < a.workflows.size(); ++i) {
    SCOPED_TRACE(std::string("workflow ").append(std::to_string(i)));
    EXPECT_EQ(a.workflows[i].finish, b.workflows[i].finish);
    EXPECT_EQ(a.workflows[i].makespan, b.workflows[i].makespan);
    EXPECT_EQ(a.workflows[i].slowdown, b.workflows[i].slowdown);
    EXPECT_EQ(a.workflows[i].wait, b.workflows[i].wait);
    EXPECT_EQ(a.workflows[i].max_wait, b.workflows[i].max_wait);
    EXPECT_EQ(a.workflows[i].outcome.makespan, b.workflows[i].outcome.makespan);
    EXPECT_EQ(a.workflows[i].outcome.evaluations,
              b.workflows[i].outcome.evaluations);
  }
  EXPECT_EQ(a.span, b.span);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.mean_makespan, b.mean_makespan);
  EXPECT_EQ(a.mean_slowdown, b.mean_slowdown);
  EXPECT_EQ(a.mean_wait, b.mean_wait);
  EXPECT_EQ(a.jain_fairness, b.jain_fairness);
}

/// Byte-exact comparison of two merged trace recorders (field order and
/// values — the merged sink contract, not just aggregate counts).
void expect_traces_identical(const sim::TraceRecorder& a,
                             const sim::TraceRecorder& b) {
  ASSERT_EQ(a.intervals().size(), b.intervals().size());
  for (std::size_t i = 0; i < a.intervals().size(); ++i) {
    SCOPED_TRACE(std::string("interval ").append(std::to_string(i)));
    EXPECT_EQ(a.intervals()[i].kind, b.intervals()[i].kind);
    EXPECT_EQ(a.intervals()[i].job, b.intervals()[i].job);
    EXPECT_EQ(a.intervals()[i].consumer, b.intervals()[i].consumer);
    EXPECT_EQ(a.intervals()[i].resource, b.intervals()[i].resource);
    EXPECT_EQ(a.intervals()[i].start, b.intervals()[i].start);
    EXPECT_EQ(a.intervals()[i].end, b.intervals()[i].end);
  }
}

/// Byte-exact comparison of two merged history repositories: identical
/// totals and identical per-key smoothed estimates (EWMA state depends
/// on observation order, so this checks the merge order too).
void expect_histories_identical(
    const grid::PerformanceHistoryRepository& a,
    const grid::PerformanceHistoryRepository& b) {
  EXPECT_EQ(a.total_observations(), b.total_observations());
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    SCOPED_TRACE(std::string("key ").append(std::to_string(i)));
    EXPECT_EQ(sa[i].operation, sb[i].operation);
    EXPECT_EQ(sa[i].resource, sb[i].resource);
    EXPECT_EQ(sa[i].smoothed, sb[i].smoothed);
    EXPECT_EQ(sa[i].count, sb[i].count);
  }
}

/// The determinism contract for a fixed shard count > 1: twin runs on a
/// real multi-threaded pool must agree bit-for-bit, every strategy kind.
TEST(ShardedStream, FixedShardCountIsBitDeterministicRunToRun) {
  const ShardedCase c;
  for (const StrategyKind kind :
       {StrategyKind::kStaticHeft, StrategyKind::kAdaptiveAheft,
        StrategyKind::kDynamic}) {
    SCOPED_TRACE(to_string(kind));
    ThreadPool workers_a(3);
    const StreamOutcome a = c.run(kind, 2, &workers_a);
    ThreadPool workers_b(3);
    const StreamOutcome b = c.run(kind, 2, &workers_b);
    expect_outcomes_identical(a, b);
  }
}

/// shards=1 (even with a worker pool supplied) must be bit-identical to
/// the default serial configuration.
TEST(ShardedStream, SingleShardMatchesSerialBitIdentically) {
  const ShardedCase c;
  ThreadPool workers(3);
  const StreamOutcome serial = c.run(StrategyKind::kAdaptiveAheft, 1, nullptr);
  const StreamOutcome sharded =
      c.run(StrategyKind::kAdaptiveAheft, 1, &workers);
  expect_outcomes_identical(serial, sharded);
}

/// Tentpole contract: shared mutable sinks compose with sharded runs,
/// and the merged output is byte-identical twin to twin — at every
/// shard count, because each shard stages privately and the session
/// replays the stamped records at barriers in (time, origin shard,
/// origin seq) order.
TEST(ShardedStream, MergedSinksAreBitDeterministicRunToRun) {
  const ShardedCase c;
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(std::string("shards=").append(std::to_string(shards)));
    sim::TraceRecorder trace_a;
    grid::PerformanceHistoryRepository history_a;
    ThreadPool workers_a(3);
    const StreamOutcome a = c.run(StrategyKind::kAdaptiveAheft, shards,
                                  &workers_a, &trace_a, &history_a);
    sim::TraceRecorder trace_b;
    grid::PerformanceHistoryRepository history_b;
    ThreadPool workers_b(3);
    const StreamOutcome b = c.run(StrategyKind::kAdaptiveAheft, shards,
                                  &workers_b, &trace_b, &history_b);
    expect_outcomes_identical(a, b);
    expect_traces_identical(trace_a, trace_b);
    expect_histories_identical(history_a, history_b);
    // The sinks actually saw the run: every job of every workflow left a
    // compute interval and a history observation.
    EXPECT_GE(trace_a.intervals().size(), 18u);  // 6 workflows x 3 jobs
    EXPECT_GE(history_a.total_observations(), 18u);
  }
}

/// The same holds with sinks: shards=1 with recorders attached must be
/// byte-identical to the plain serial session, recorders included (a
/// one-shard session hands the shared sinks out directly).
TEST(ShardedStream, SingleShardWithSinksMatchesSerialByteForByte) {
  const ShardedCase c;
  sim::TraceRecorder serial_trace;
  grid::PerformanceHistoryRepository serial_history;
  const StreamOutcome serial =
      c.run(StrategyKind::kAdaptiveAheft, 1, nullptr, &serial_trace,
            &serial_history);
  sim::TraceRecorder sharded_trace;
  grid::PerformanceHistoryRepository sharded_history;
  ThreadPool workers(3);
  const StreamOutcome sharded =
      c.run(StrategyKind::kAdaptiveAheft, 1, &workers, &sharded_trace,
            &sharded_history);
  expect_outcomes_identical(serial, sharded);
  expect_traces_identical(serial_trace, sharded_trace);
  expect_histories_identical(serial_history, sharded_history);
}

/// Worker scheduling never reaches the merged sinks: a pool run equals
/// the same run drained inline, shard by shard, byte for byte.
TEST(ShardedStream, MergedSinksMatchTheInlineDrainByteForByte) {
  const ShardedCase c;
  sim::TraceRecorder inline_trace;
  grid::PerformanceHistoryRepository inline_history;
  const StreamOutcome drained_inline =
      c.run(StrategyKind::kAdaptiveAheft, 2, nullptr, &inline_trace,
            &inline_history);
  sim::TraceRecorder pool_trace;
  grid::PerformanceHistoryRepository pool_history;
  ThreadPool workers(3);
  const StreamOutcome pooled = c.run(StrategyKind::kAdaptiveAheft, 2,
                                     &workers, &pool_trace, &pool_history);
  expect_outcomes_identical(drained_inline, pooled);
  expect_traces_identical(inline_trace, pool_trace);
  expect_histories_identical(inline_history, pool_history);
}

/// A sharded stream must finish every workflow and keep the instances on
/// their home shards' machines (the masked pool never exposes foreign
/// machines, so participant counts split across shard tables).
TEST(ShardedStream, PartitionsParticipantsAcrossShards) {
  const ShardedCase c;
  ThreadPool workers(2);
  const StreamOutcome outcome = c.run(StrategyKind::kStaticHeft, 2, &workers);
  ASSERT_EQ(outcome.workflows.size(), 6u);
  for (const WorkflowResult& wf : outcome.workflows) {
    EXPECT_GT(wf.makespan, 0.0) << wf.name;
    EXPECT_GE(wf.slowdown, 0.99) << wf.name;
  }
}

TEST(ShardedSession, MaskedPoolHidesForeignMachines) {
  const ShardedCase c;
  SessionEnvironment env;
  env.pool = &c.pool;
  env.shards = 2;
  SimulationSession session(env);
  ASSERT_EQ(session.shard_count(), 2u);
  {
    const auto binding = session.bind_shard(0);
    const auto visible = session.pool().available_at(0.0);
    EXPECT_EQ(visible, (std::vector<grid::ResourceId>{0, 1}));
    // Ids are universe ids: the masked pool holds all four machines.
    EXPECT_EQ(session.pool().universe_size(), 4u);
    // Foreign machines never produce visibility-change events either.
    EXPECT_TRUE(session.pool().change_times(0.0, sim::kTimeInfinity).empty());
  }
  {
    const auto binding = session.bind_shard(1);
    const auto visible = session.pool().available_at(0.0);
    EXPECT_EQ(visible, (std::vector<grid::ResourceId>{2, 3}));
  }
}

TEST(ShardedSession, ConfinementRejectsForeignResourceAcquire) {
  const ShardedCase c;
  SessionEnvironment env;
  env.pool = &c.pool;
  env.shards = 2;
  SimulationSession session(env);
  Probe probe;
  const auto binding = session.bind_shard(0);
  session.add_participant(&probe);
  // Machine 3 belongs to shard 1; acquiring it from shard 0 must throw.
  EXPECT_THROW((void)session.acquire(&probe, 3, 0.0, 1.0),
               std::invalid_argument);
  // The home shard's machines work normally.
  EXPECT_DOUBLE_EQ(session.acquire(&probe, 0, 0.0, 1.0), 0.0);
}

TEST(ShardedSession, SharedSinksComposeWithShardedSessions) {
  // Shared mutable sinks used to force shards=1; now each shard gets a
  // private stamped staging buffer the session merges at tick barriers,
  // so construction succeeds and a bound shard sees its own sink rather
  // than the shared recorder.
  const ShardedCase c;
  sim::TraceRecorder trace;
  grid::PerformanceHistoryRepository history;
  SessionEnvironment env;
  env.pool = &c.pool;
  env.shards = 2;
  env.trace = &trace;
  env.history = &history;
  SimulationSession session(env);
  ASSERT_EQ(session.shard_count(), 2u);
  const auto binding = session.bind_shard(1);
  EXPECT_NE(session.trace(), static_cast<sim::TraceRecorder*>(&trace));
  EXPECT_NE(session.history(),
            static_cast<grid::PerformanceHistoryRepository*>(&history));
}

TEST(ShardedSession, SerialSessionsHandOutTheSharedSinksDirectly) {
  const ShardedCase c;
  sim::TraceRecorder trace;
  grid::PerformanceHistoryRepository history;
  SessionEnvironment env;
  env.pool = &c.pool;
  env.shards = 1;
  env.trace = &trace;
  env.history = &history;
  SimulationSession session(env);
  EXPECT_EQ(session.trace(), &trace);
  EXPECT_EQ(session.history(), &history);
}

TEST(ShardedSession, ContentionStatsFindEveryParticipantAfterTheRun) {
  const ShardedCase c;
  SessionEnvironment env;
  env.pool = &c.pool;
  env.shards = 2;
  SimulationSession session(env);
  // Two chains on machine 0 (shard 0) and two on machine 3 (shard 1):
  // each registers on its machine's shard, and one of each pair waits.
  std::vector<std::unique_ptr<ExecutionEngine>> engines;
  for (const grid::ResourceId machine : {0U, 0U, 3U, 3U}) {
    const auto binding = session.bind_shard(session.shard_of(machine));
    engines.push_back(
        std::make_unique<ExecutionEngine>(session, c.dag, c.model));
    Schedule plan(c.dag.job_count());
    for (dag::JobId job = 0; job < c.dag.job_count(); ++job) {
      const auto start = static_cast<sim::Time>(job);
      plan.assign(Assignment{job, machine, start, start + 1.0});
    }
    engines.back()->submit(plan);
  }
  session.run();
  double total_wait = 0.0;
  for (const auto& engine : engines) {
    ASSERT_TRUE(engine->finished());
    // After run() no shard is bound; the lookup still reaches shard 1.
    const ContentionStats stats = session.contention_stats(engine.get());
    EXPECT_EQ(stats.grants, c.dag.job_count());
    total_wait += stats.total_wait;
  }
  EXPECT_GT(total_wait, 0.0);
  Probe stranger;
  EXPECT_EQ(session.contention_stats(&stranger).grants, 0u);
}

TEST(ShardedSession, ShardCountClampsToUniverse) {
  const ShardedCase c;  // 4 machines
  SessionEnvironment env;
  env.pool = &c.pool;
  env.shards = 64;
  SimulationSession session(env);
  EXPECT_EQ(session.shard_count(), 4u);
  // Every machine maps to a valid shard and every shard owns a machine.
  std::vector<bool> seen(session.shard_count(), false);
  for (grid::ResourceId r = 0; r < 4; ++r) {
    seen[session.shard_of(r)] = true;
  }
  for (std::size_t s = 0; s < seen.size(); ++s) {
    EXPECT_TRUE(seen[s]) << "shard " << s << " owns no machine";
  }
}

}  // namespace
}  // namespace aheft::core
