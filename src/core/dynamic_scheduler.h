// Dynamic (just-in-time) scheduling baseline.
//
// The paper's dynamic comparator schedules each job only when it becomes
// ready, with the Min-Min heuristic, on top of an event-driven simulation
// (§4.2, built there on SimJava). Key semantic difference from the static
// strategies (§4.1 assumption 2): a producer's output file stays at the
// producer until the executor decides which resource runs the consumer;
// the transfer then starts at decision time.
//
// DynamicExecution is the session form: it runs inside a shared
// SimulationSession, realizes load-scaled run times from the session's
// LoadProfile (decisions still use nominal costs — just-in-time schedulers
// don't see the future either), and participates in cross-workflow
// resource contention. Dispatch is two-phase under arbitrating policies
// (ContentionPolicy::two_phase_dynamic): a decision whose granted start
// lies in the future takes a held ledger reservation — visible to and
// displaceable by the policy — and commits only when the grant matures,
// so priority and fair-share genuinely arbitrate dynamic demand. Under
// FCFS the historical instant advance booking is preserved bit-for-bit.
// A one-DAG run is core::run_strategy with StrategyKind::kDynamic over a
// private session.
#ifndef AHEFT_CORE_DYNAMIC_SCHEDULER_H_
#define AHEFT_CORE_DYNAMIC_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/outcome.h"
#include "core/schedule.h"
#include "core/session.h"
#include "dag/dag.h"
#include "grid/cost_provider.h"
#include "grid/load_profile.h"
#include "grid/resource_pool.h"
#include "sim/trace.h"

namespace aheft::core {

/// Event-driven just-in-time Min-Min execution of one DAG inside a shared
/// session. Decisions are made with nominal costs over the resources
/// visible at decision time; realized run times are stretched by the
/// session's load profile, and machine reservations respect (and are
/// visible to) every other workflow in the session through the ledger.
///
/// Departures follow the session's DepartureAction, as in the execution
/// engine. Under kError (the default) a decision round with no machine
/// able to finish a job, or a load-stretched run outliving its machine,
/// throws. Otherwise the round defers until the pool next changes (a
/// repair may bring a machine) and fails the run gracefully only when the
/// pool never changes again, and the stretched run fails the run instead
/// of aborting the process. Dynamic runs have no restart machinery (a
/// just-in-time job either finishes or never ran), so kRequeue degrades
/// to the same graceful failure as kFail — checkpoint/restart requeueing
/// is the planner engines' domain.
class DynamicExecution : public SessionParticipant {
 public:
  /// `priority` is the workflow's weight under the session's contention
  /// policy (ignored by FCFS). `contention_aware` makes the release-time
  /// greedy-EFT estimate (planned_finish, the fair-share scale) price
  /// the session ledger's foreign load through an AvailabilityView —
  /// the same snapshot the contention-aware planner fits against — so
  /// static and dynamic strategies price contention consistently. The
  /// per-decision dispatch already arbitrates live through the ledger
  /// and is unaffected.
  DynamicExecution(SimulationSession& session, const dag::Dag& dag,
                   const grid::CostProvider& actual, double priority = 1.0,
                   bool contention_aware = false);

  /// Receives the run's outcome: `evaluations` counts the decision
  /// rounds, `schedule` is the realized placement (partial on failure).
  using Completion = std::function<void(StrategyOutcome)>;

  /// Schedules the first decision round at `release` (>= the session
  /// clock); `done` fires on the session clock once every job finished,
  /// or once the run failed. The execution must outlive the session's
  /// run.
  void launch(sim::Time release, Completion done);

  [[nodiscard]] bool finished() const {
    return finished_count_ == dag_->job_count();
  }
  [[nodiscard]] sim::Time makespan() const { return makespan_; }

  // SessionParticipant: a competing reservation on `resource` moved —
  // re-arbitrate the held (two-phase) dispatch decisions queued there.
  void contention_changed(grid::ResourceId resource) override;
  // SessionParticipant: the workflow's release-time scale — a greedy
  // earliest-finish list schedule over the release-visible machines
  // (estimate_solo_finish) — the base of fair-share stretch
  // normalization. Without a scale a dynamic workflow can never
  // displace competitors.
  [[nodiscard]] sim::Time planned_finish() const override {
    return planned_finish_;
  }

 private:
  /// A two-phase dispatch decision whose grant has not matured: the
  /// placement is fixed (transfers started at decision time, per the
  /// paper's dynamic file model), the start keeps re-arbitrating.
  struct HeldDispatch {
    grid::ResourceId resource = grid::kInvalidResource;
    double nominal = 0.0;         ///< decision-time run length estimate
    sim::Time decided_at = sim::kTimeZero;    ///< when the placement fell
    sim::Time inputs_ready = sim::kTimeZero;  ///< fixed at decision time
    sim::Time retry_at = sim::kTimeZero;      ///< pending retry event time
    std::uint64_t generation = 0;             ///< invalidates stale retries
    /// Decision order: a held claim gates only later decisions (mirrors
    /// the strict stacking of instant advance bookings); a cycle-free
    /// order, so held jobs can never gate each other both ways.
    std::uint64_t seq = 0;
  };

  /// Greedy earliest-finish list schedule over the release-visible
  /// machines: the workflow's uncontended scale for fair-share stretch.
  /// In contention-aware mode the machines' free intervals come from the
  /// session ledger's availability snapshot instead of an empty grid.
  [[nodiscard]] sim::Time estimate_solo_finish() const;
  /// Earliest time `job`'s inputs can all be present on `resource` when
  /// the transfer decisions are taken now.
  [[nodiscard]] sim::Time inputs_ready(dag::JobId job,
                                       grid::ResourceId resource,
                                       sim::Time now) const;
  /// Time `resource` is free for this workflow's own reasons that the
  /// ledger does not know: its held dispatch claims and the machine's
  /// arrival. The session's acquire and peek add the workflow's
  /// committed bookings and the cross-workflow grant on top.
  [[nodiscard]] sim::Time machine_free(grid::ResourceId resource) const;
  /// machine_free seen by decision number `seq`: only held claims of
  /// strictly earlier decisions gate it (its own claim never does).
  [[nodiscard]] sim::Time machine_free_before(grid::ResourceId resource,
                                              std::uint64_t seq) const;
  /// Nominal completion time used by the Min-Min decision.
  [[nodiscard]] sim::Time completion_time(dag::JobId job,
                                          grid::ResourceId resource,
                                          sim::Time now) const;

  /// Whether the session's DepartureAction is kError: a job no machine
  /// can finish before departing throws instead of failing the run.
  [[nodiscard]] bool departure_is_error() const {
    return session_->resilience().departure_action ==
           resilience::DepartureAction::kError;
  }
  void dispatch();
  /// Ready jobs no visible machine can host right now wait for the next
  /// pool change; a pool that never changes again fails the run.
  void defer_dispatch(sim::Time now);
  /// Terminal graceful failure: drops every queued reservation and fires
  /// the completion callback once with a failed result (fresh event).
  void fail_run(const std::string& reason);
  /// Hands the run's outcome to the completion callback.
  void report();
  void assign(dag::JobId job, grid::ResourceId resource, sim::Time now);
  /// Starts the job at `start` (records the input transfers that began
  /// at the decision, commits the ledger reservation, applies the load
  /// stretch, schedules the completion). Transfers are recorded here —
  /// when the placement is final — not at decision time, so a held
  /// dispatch abandoned before starting (machine departure) leaves no
  /// phantom transfer records in the trace.
  void start_assignment(dag::JobId job, grid::ResourceId resource,
                        double nominal, sim::Time start,
                        sim::Time decided_at);
  void record_input_transfers(dag::JobId job, grid::ResourceId resource,
                              sim::Time decided_at);
  /// Re-arbitrates one held dispatch: commits when the grant matured,
  /// re-holds (and re-arms the retry) when it moved.
  void retry_held(dag::JobId job);
  void schedule_retry(dag::JobId job, sim::Time when);
  void complete(dag::JobId job, grid::ResourceId resource, sim::Time start,
                sim::Time finish);

  SimulationSession* session_;
  const dag::Dag* dag_;
  const grid::CostProvider* actual_;
  const grid::ResourcePool* pool_;
  const grid::LoadProfile* load_;
  sim::TraceRecorder* trace_;
  bool contention_aware_ = false;

  sim::Time release_ = sim::kTimeZero;
  Completion done_;
  bool failed_ = false;
  std::string failure_reason_;
  sim::Time deferred_until_ = -1.0;  ///< pending pool-change retry (dedup)

  /// Every started job's placement and finish time; a finished
  /// producer's machine and output time are read from here.
  Schedule schedule_;
  std::vector<bool> finished_;
  std::vector<std::uint32_t> pending_preds_;
  std::vector<dag::JobId> ready_;
  std::map<dag::JobId, HeldDispatch> held_;
  std::uint64_t next_decision_seq_ = 0;
  std::size_t finished_count_ = 0;
  std::size_t batches_ = 0;
  sim::Time makespan_ = sim::kTimeZero;
  sim::Time planned_finish_ = sim::kTimeZero;
};

}  // namespace aheft::core

#endif  // AHEFT_CORE_DYNAMIC_SCHEDULER_H_
