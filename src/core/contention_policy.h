// Pluggable arbitration of cross-workflow machine contention.
//
// The session routes every demand for machine time through its
// ResourceLedger (resource_ledger.h); the ContentionPolicy decides the
// start time each queued ledger entry is granted. Three policies ship:
//
//  - kFcfs       first-come-first-served; bit-compatible with the
//                pre-policy behavior (grant = committed bookings of the
//                other participants, ties broken by event order).
//  - kPriority   strict priorities: a request defers behind every queued
//                entry of a strictly higher-priority workflow. Equal
//                priorities degrade to FCFS. Low-priority workflows can
//                starve — that is the policy's contract; the session's
//                wait metrics make the starvation measurable.
//  - kFairShare  stretch fairness: each workflow's elapsed time in the
//                session is normalized by its own uncontended plan
//                length, and a workflow whose normalized delay (stretch)
//                runs far beyond a competitor's displaces it. Equal
//                absolute waits crush short workflows while barely
//                registering for long ones — normalizing by the
//                workflow's own scale is what bounds the worst slowdown
//                instead of just equalizing machine hours.
//
// Policies are per-session state (fair share accumulates usage), so the
// session constructs its own instance from the environment's registry
// name; see SessionEnvironment::contention_policy.
#ifndef AHEFT_CORE_CONTENTION_POLICY_H_
#define AHEFT_CORE_CONTENTION_POLICY_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/resource_ledger.h"
#include "sim/time.h"

namespace aheft::core {

enum class ContentionPolicyKind { kFcfs, kPriority, kFairShare };

/// Registry name of the built-in policy ("fcfs", "priority", "fair-share").
[[nodiscard]] std::string to_string(ContentionPolicyKind kind);

/// Everything a policy sees when granting one ledger entry. The queue is
/// the resource's pending + held entries in registration order and
/// includes the request itself when it is registered (what-if peeks pass
/// an unregistered probe); `others_busy` is the latest committed booking
/// of any other participant on that resource (the FCFS floor).
struct ContentionQuery {
  const ReservationEntry* request = nullptr;
  sim::Time now = sim::kTimeZero;
  sim::Time others_busy = sim::kTimeZero;
  const std::vector<ReservationEntry>* queue = nullptr;
};

/// Decides the start time granted to each queued ledger entry. grant()
/// must be const and deterministic (it also serves what-if peeks from
/// decision heuristics); state such as fair-share usage mutates only in
/// on_commit(). A grant at or before the request's ready time means "go
/// now"; later values tell the caller when to retry — by then the favored
/// competitors have either committed (their bookings move `others_busy`)
/// or withdrawn, so repeated grants converge.
class ContentionPolicy {
 public:
  virtual ~ContentionPolicy() = default;

  [[nodiscard]] virtual ContentionPolicyKind kind() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual sim::Time grant(const ContentionQuery& query) const = 0;

  /// A granted entry started running over [start, end): usage accounting
  /// hook. Default is a no-op.
  virtual void on_commit(const ReservationEntry& entry, sim::Time start,
                         sim::Time end);

  /// Whether grants can move EARLIER when another entry commits or
  /// withdraws. When true the session wakes the remaining queued owners
  /// of the resource so deferred workflows re-evaluate immediately
  /// instead of polling a stale projection while the machine idles. FCFS
  /// grants depend only on committed bookings (which never shrink), so it
  /// opts out and keeps the historical event stream untouched.
  [[nodiscard]] virtual bool needs_change_notifications() const;

  /// Whether just-in-time (dynamic) dispatch should reserve→commit in two
  /// phases under this policy: a dynamic decision whose granted start
  /// lies in the future stays a queued (visible, displaceable) ledger
  /// entry until the grant matures, instead of advance-booking the slot
  /// instantly. FCFS opts out — instant advance booking is its
  /// historical, bit-stable behavior — so it returns false by default
  /// when change notifications are off.
  [[nodiscard]] virtual bool two_phase_dynamic() const;

  /// Whether this policy's arbitration may escalate to revoking a
  /// *committed* window (preemption of running work). Policies without a
  /// starvation notion opt out (default); fair-share opts in. The
  /// session additionally requires the environment's resilience config
  /// to enable preemption, so a capable policy alone changes nothing.
  [[nodiscard]] virtual bool supports_preemption() const;

  /// Starvation measure of `entry` at `now` for preemption comparisons;
  /// only meaningful when supports_preemption() (default 0). The session
  /// compares a deferred requester's value against the value of the
  /// committed window's owner under the resilience deadband.
  [[nodiscard]] virtual double preemption_stretch(
      const ReservationEntry& entry, sim::Time now) const;
};

/// Builds a fresh instance of a built-in policy.
[[nodiscard]] std::unique_ptr<ContentionPolicy> make_contention_policy(
    ContentionPolicyKind kind);

/// Process-wide, thread-safe name -> factory registry, pre-populated with
/// the built-ins under their to_string names. Every SimulationSession
/// resolves its environment's policy name here, so registered custom
/// policies are selectable from the bench/exp --contention-policy axes.
class ContentionPolicyRegistry {
 public:
  using Factory = std::function<std::unique_ptr<ContentionPolicy>()>;

  static ContentionPolicyRegistry& instance();

  /// Registers a factory; a policy with the same name is replaced.
  void register_policy(std::string name, Factory factory);

  /// Builds a fresh policy instance; throws std::invalid_argument listing
  /// the known names when `name` is unknown.
  [[nodiscard]] std::unique_ptr<ContentionPolicy> create(
      std::string_view name) const;

  [[nodiscard]] std::vector<std::string> names() const;  ///< sorted

 private:
  ContentionPolicyRegistry();

  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace aheft::core

#endif  // AHEFT_CORE_CONTENTION_POLICY_H_
