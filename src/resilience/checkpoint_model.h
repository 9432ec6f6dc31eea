// Checkpoint/restart cost model (Daly-style) and the resilience knobs.
//
// A job that loses its machine mid-run — a departure the plan did not
// survive, or a policy-initiated revocation — retains only the work a
// checkpoint saved. The model here prices that: a run of W nominal work
// units is structured as cycles of (interval of useful work, then a
// checkpoint write of `write_cost`), the final partial cycle writing
// nothing because completion itself persists the result. An interrupted
// run keeps floor-progress `n * interval` for n completed cycles, pays
// `read_cost` once to restart from the saved image, and loses everything
// since the last checkpoint. The degenerate model (enabled = false)
// retains nothing: restart is always from scratch.
//
// The default interval is Daly's higher-order optimum from the write
// cost and the per-job MTBF (J. T. Daly, "A higher order estimate of the
// optimum checkpoint interval for restart dumps", FGCS 2006) — the same
// formula the codes-checkpoint-restart workload generator uses:
//
//   delta < M/2:  tau = sqrt(2 delta M) [1 + 1/3 sqrt(delta/(2M))
//                                          + 1/9 (delta/(2M))] - delta
//   otherwise:    tau = M
//
// Everything here is in nominal work units (the executor applies its
// load factor when converting to wall clock), pure, and dependency-free
// below grid/sim, so the session environment can embed the config.
#ifndef AHEFT_RESILIENCE_CHECKPOINT_MODEL_H_
#define AHEFT_RESILIENCE_CHECKPOINT_MODEL_H_

#include <cstddef>

namespace aheft::resilience {

/// What the executor does when a running (or about-to-start) job cannot
/// finish before its machine departs.
enum class DepartureAction {
  /// Refuse the scenario: throw (a load-stretched run) or fail an
  /// internal assertion (a plan that did not fit the window). The paper's
  /// executor assumes a machine never leaves under a running job (§4.1).
  kError,
  /// The workflow fails gracefully: running work is truncated, the
  /// failure is counted, and the stream carries on. This is the
  /// "reject the run" baseline expressed as data instead of an abort.
  kFail,
  /// Treat the departure as a failure the job does not foresee: run to
  /// the wall, salvage checkpointed progress (or lose everything under
  /// the degenerate model), and requeue the remainder elsewhere through
  /// the normal acquire/commit lifecycle.
  kRequeue,
};

/// The checkpoint/restart cost model of one session. Disabled means
/// "no checkpoints, restart from scratch" — revocations retain nothing.
struct CheckpointModel {
  bool enabled = false;
  /// Nominal cost of writing one checkpoint image (Daly's delta).
  double write_cost = 0.0;
  /// Nominal cost of restoring from the latest image on restart.
  double read_cost = 0.0;
  /// Per-job mean time between failures (Daly's M); feeds the optimum
  /// interval when `interval` is 0.
  double mtbf = 0.0;
  /// Checkpoint interval in nominal work units; 0 derives Daly's
  /// optimum from (write_cost, mtbf).
  double interval = 0.0;
};

/// Daly's higher-order optimum checkpoint interval (see file header).
[[nodiscard]] double daly_interval(double write_cost, double mtbf);

/// The interval a session actually checkpoints at: the explicit knob
/// when set, else Daly's optimum. Requires an enabled, validated model.
[[nodiscard]] double effective_interval(const CheckpointModel& model);

/// Machine time a run of `work` nominal units occupies under `model`:
/// the work plus every interleaved checkpoint write (completion itself
/// persists the result, so a run never ends on a write).
[[nodiscard]] double segment_occupancy(const CheckpointModel& model,
                                       double work);

/// How an interrupted run segment decomposes. All nominal work units;
/// retained + overhead + lost == the elapsed occupancy at interruption.
struct SegmentProgress {
  /// Useful work saved by completed checkpoints (kept on restart).
  double retained = 0.0;
  /// Completed checkpoint writes (paid, not useful, not redone).
  double overhead = 0.0;
  /// Work since the last checkpoint plus any partial write (redone).
  double lost = 0.0;
};

/// Splits a segment of `work` nominal units interrupted after `elapsed`
/// nominal units of occupancy. The degenerate (disabled) model retains
/// nothing and loses all of `elapsed`.
[[nodiscard]] SegmentProgress segment_progress(const CheckpointModel& model,
                                               double elapsed, double work);

/// Fair-share preemption deadband: a starved requester may revoke the
/// committed window blocking it only when its stretch exceeds
/// kPreemptionMinStretch AND kPreemptionRatio times the victim's stretch
/// (mirrors the fair-share displacement band for held claims).
inline constexpr double kPreemptionMinStretch = 2.0;
inline constexpr double kPreemptionRatio = 1.25;

/// Revocations one job may absorb before its workflow fails — bounds
/// requeue livelock under sustained failure bursts.
inline constexpr std::size_t kMaxRevocationsPerJob = 16;

/// Everything the resilience subsystem can be told to do. The executors
/// and the session run one code path for every config; the default
/// (kError, no checkpoints, no preemption) is the point of it at which no
/// job is ever revoked.
struct ResilienceConfig {
  DepartureAction departure_action = DepartureAction::kError;
  CheckpointModel checkpoint;
  /// Fair-share preemption: a starved requester may revoke the committed
  /// window blocking it when the stretch disparity clears the deadband
  /// (kPreemptionMinStretch, kPreemptionRatio). Only engages under a
  /// policy that supports preemption.
  bool preemption = false;

  /// Whether the config can revoke a job: a departure action other than
  /// kError, or preemption. validate() refuses a checkpoint model on an
  /// inactive config, which would never be read.
  [[nodiscard]] bool active() const {
    return departure_action != DepartureAction::kError || preemption;
  }
};

/// Throws std::invalid_argument on an inconsistent checkpoint model (an
/// enabled one on an inactive config, without a positive write cost or
/// any way to pick an interval, or with a negative read cost or interval).
void validate(const ResilienceConfig& config);

}  // namespace aheft::resilience

#endif  // AHEFT_RESILIENCE_CHECKPOINT_MODEL_H_
