#include "core/contention_policy.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "resilience/checkpoint_model.h"
#include "support/assert.h"

namespace aheft::core {

std::string to_string(ContentionPolicyKind kind) {
  switch (kind) {
    case ContentionPolicyKind::kFcfs:
      return "fcfs";
    case ContentionPolicyKind::kPriority:
      return "priority";
    case ContentionPolicyKind::kFairShare:
      return "fair-share";
  }
  return "unknown";
}

void ContentionPolicy::on_commit(const ReservationEntry& /*entry*/,
                                 sim::Time /*start*/, sim::Time /*end*/) {}

bool ContentionPolicy::needs_change_notifications() const { return true; }

bool ContentionPolicy::two_phase_dynamic() const {
  return needs_change_notifications();
}

bool ContentionPolicy::supports_preemption() const { return false; }

double ContentionPolicy::preemption_stretch(const ReservationEntry& /*entry*/,
                                            sim::Time /*now*/) const {
  return 0.0;
}

namespace {

/// The machine slot the request is asking for: its own feasible start
/// pushed past the committed bookings of the competitors.
sim::Time slot_start(const ContentionQuery& query) {
  return std::max({query.request->ready, query.others_busy, query.now});
}

/// Could `competitor` actually occupy the slot if it were handed over?
/// Deferring behind a workflow whose next job is not ready yet would just
/// idle the machine (the slot's owner cannot start either), so favored
/// competitors only displace the request when they can use the slot —
/// plain backfilling, as advance-reservation schedulers do it.
bool can_take_slot(const ReservationEntry& competitor,
                   const ContentionQuery& query) {
  return sim::time_le(competitor.ready, slot_start(query));
}

/// The time a pending competitor would release the machine if it ran
/// next: it cannot start before its own ready time or the present, and
/// holds the machine for its projected duration. Deferring behind this is
/// a one-slice estimate — the deferred participant re-requests at that
/// time and re-evaluates against the then-current picture.
sim::Time projected_release(const ReservationEntry& competitor,
                            const ContentionQuery& query) {
  return std::max({competitor.ready, query.now, query.others_busy}) +
         competitor.duration;
}

/// Projects when the machine frees for a request after serving every
/// held two-phase claim queued ahead of it (per `ahead`, a policy-total
/// order). Claims are served in ledger-id order — the order they stacked
/// when granted — each no earlier than its own feasible time.
template <typename Ahead>
sim::Time serve_held_ahead(const ContentionQuery& query, Ahead ahead) {
  std::vector<const ReservationEntry*> claims;
  for (const ReservationEntry& other : *query.queue) {
    if (other.participant != query.request->participant &&
        other.state == ReservationState::kHeld && ahead(other)) {
      claims.push_back(&other);
    }
  }
  std::sort(claims.begin(), claims.end(),
            [](const ReservationEntry* a, const ReservationEntry* b) {
              return a->id < b->id;
            });
  sim::Time t = std::max(query.now, query.others_busy);
  for (const ReservationEntry* claim : claims) {
    t = std::max(t, claim->ready) + claim->duration;
  }
  return t;
}

class FcfsPolicy final : public ContentionPolicy {
 public:
  [[nodiscard]] ContentionPolicyKind kind() const override {
    return ContentionPolicyKind::kFcfs;
  }
  [[nodiscard]] std::string name() const override { return "fcfs"; }

  // Exactly the pre-policy arbitration: wait out the committed bookings
  // of the other participants, then race (event order breaks ties).
  [[nodiscard]] sim::Time grant(const ContentionQuery& query) const override {
    return std::max(query.request->ready, query.others_busy);
  }

  [[nodiscard]] bool needs_change_notifications() const override {
    return false;
  }
};

class PriorityPolicy final : public ContentionPolicy {
 public:
  [[nodiscard]] ContentionPolicyKind kind() const override {
    return ContentionPolicyKind::kPriority;
  }
  [[nodiscard]] std::string name() const override { return "priority"; }

  [[nodiscard]] sim::Time grant(const ContentionQuery& query) const override {
    const ReservationEntry& self = *query.request;
    // Held two-phase claims form a service queue ordered by strict rank,
    // ids (registration order) breaking ties: the request is granted the
    // machine only after every claim queued ahead of it has been served.
    // The order is total at any instant, so the relation is acyclic and
    // the queue head always converges onto the machine.
    sim::Time start = std::max(
        self.ready,
        serve_held_ahead(query, [&self](const ReservationEntry& held) {
          return held.priority > self.priority ||
                 (held.priority == self.priority && held.id < self.id);
        }));
    for (const ReservationEntry& other : *query.queue) {
      if (other.participant == self.participant ||
          other.state == ReservationState::kHeld ||
          other.priority <= self.priority || !can_take_slot(other, query)) {
        continue;
      }
      start = std::max(start, projected_release(other, query));
    }
    return start;
  }
};

/// Stretch fairness: a workflow's stretch is its elapsed session time
/// over its own uncontended plan length (times its weight), i.e. how many
/// of "its own makespans" it has been in the system. Among the pending
/// requests of a resource, a workflow whose stretch runs beyond a
/// competitor's by more than the deadband displaces it. Normalizing by
/// the workflow's own scale is what bounds the worst-case slowdown:
/// equal absolute waits crush short workflows while barely registering
/// for long ones. The deadband keeps FCFS's compact plan execution for
/// mild imbalance — per-job round-robin against every wiggle would stall
/// each deferred job's successors on other machines and tax everyone.
class FairSharePolicy final : public ContentionPolicy {
 public:
  [[nodiscard]] ContentionPolicyKind kind() const override {
    return ContentionPolicyKind::kFairShare;
  }
  [[nodiscard]] std::string name() const override { return "fair-share"; }

  [[nodiscard]] sim::Time grant(const ContentionQuery& query) const override {
    const ReservationEntry& self = *query.request;
    const double self_stretch = stretch(self, query.now);
    const int self_tier = starvation_tier(self_stretch);
    // Held two-phase claims form a service queue ordered by starvation
    // tier (a workflow pushed past its own solo span overtakes the
    // booking order), ids breaking ties inside a tier. The order is
    // total at any instant — no pairwise-relative jumping, which could
    // cycle — so the queue head always converges onto the machine.
    sim::Time start = std::max(
        self.ready, serve_held_ahead(query, [&](const ReservationEntry& held) {
          const int tier = starvation_tier(stretch(held, query.now));
          return tier > self_tier ||
                 (tier == self_tier && held.id < self.id);
        }));
    // Only the single most-stretched pending competitor may displace the
    // request: boosting one victim at a time keeps the collateral damage
    // (displaced mid-pack workflows picking up slowdown of their own)
    // minimal, which is what keeps the whole distribution tight.
    const ReservationEntry* starved = nullptr;
    double starved_stretch = 0.0;
    for (const ReservationEntry& other : *query.queue) {
      if (other.participant == self.participant ||
          other.state == ReservationState::kHeld ||
          !can_take_slot(other, query)) {
        continue;
      }
      const double s = stretch(other, query.now);
      if (starved == nullptr || s > starved_stretch) {
        starved = &other;
        starved_stretch = s;
      }
    }
    if (starved != nullptr && displaces(starved_stretch, self_stretch)) {
      start = std::max(start, projected_release(*starved, query));
    }
    return start;
  }

  // Preemption escalates the same stretch comparison to committed
  // windows; the session applies the resilience deadband on top.
  [[nodiscard]] bool supports_preemption() const override { return true; }
  [[nodiscard]] double preemption_stretch(const ReservationEntry& entry,
                                          sim::Time now) const override {
    return stretch(entry, now);
  }

 private:
  [[nodiscard]] static double stretch(const ReservationEntry& request,
                                      sim::Time now) {
    if (request.planned_span <= 0.0) {
      return 0.0;  // scale unknown: never displaces competitors
    }
    return request.priority * std::max(now - request.active_since, 0.0) /
           request.planned_span;
  }

  /// Does a competitor stretched to `starved` deserve the machine before
  /// a requester stretched to `self`? Only when it is well past its own
  /// uncontended completion AND starved beyond the deadband relative to
  /// the requester. The deadband keeps mutual deferral impossible, so
  /// some pending request is always granted. It is the band preemption
  /// applies to committed windows, so the two cannot drift apart.
  [[nodiscard]] static bool displaces(double starved, double self) {
    return starved > resilience::kPreemptionMinStretch &&
           starved > resilience::kPreemptionRatio * self;
  }

  /// Starvation tier of a stretch value: quantized most-starved-first.
  /// A workflow a full band more stretched than another overtakes its
  /// held bookings; inside a band the registration order stands. An
  /// absolute quantization — not a pairwise-relative test — so the
  /// service order over held claims is total at every instant, and the
  /// band width is the hysteresis that keeps mild imbalance from
  /// reshuffling the queue on every wiggle. The band equals the
  /// pending-displacement deadband: overtaking a booking takes the same
  /// two-own-makespans starvation that displacing a queue head does.
  [[nodiscard]] static int starvation_tier(double stretch_value) {
    constexpr double kBand = 2.0;
    return static_cast<int>(std::max(0.0, stretch_value) / kBand);
  }
};

}  // namespace

std::unique_ptr<ContentionPolicy> make_contention_policy(
    ContentionPolicyKind kind) {
  switch (kind) {
    case ContentionPolicyKind::kFcfs:
      return std::make_unique<FcfsPolicy>();
    case ContentionPolicyKind::kPriority:
      return std::make_unique<PriorityPolicy>();
    case ContentionPolicyKind::kFairShare:
      return std::make_unique<FairSharePolicy>();
  }
  throw std::invalid_argument("unknown contention policy kind");
}

struct ContentionPolicyRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, Factory, std::less<>> factories;
};

ContentionPolicyRegistry::ContentionPolicyRegistry()
    : impl_(std::make_shared<Impl>()) {
  for (const ContentionPolicyKind kind :
       {ContentionPolicyKind::kFcfs, ContentionPolicyKind::kPriority,
        ContentionPolicyKind::kFairShare}) {
    impl_->factories[to_string(kind)] = [kind] {
      return make_contention_policy(kind);
    };
  }
}

ContentionPolicyRegistry& ContentionPolicyRegistry::instance() {
  static ContentionPolicyRegistry registry;
  return registry;
}

void ContentionPolicyRegistry::register_policy(std::string name,
                                               Factory factory) {
  AHEFT_REQUIRE(!name.empty(), "contention policy needs a name");
  AHEFT_REQUIRE(factory != nullptr, "contention policy needs a factory");
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->factories[std::move(name)] = std::move(factory);
}

std::unique_ptr<ContentionPolicy> ContentionPolicyRegistry::create(
    std::string_view name) const {
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto it = impl_->factories.find(name);
    if (it != impl_->factories.end()) {
      factory = it->second;
    }
  }
  if (!factory) {
    std::ostringstream message;
    message << "unknown contention policy '" << name << "' (known:";
    for (const std::string& known : names()) {
      message << ' ' << known;
    }
    message << ')';
    throw std::invalid_argument(message.str());
  }
  std::unique_ptr<ContentionPolicy> policy = factory();
  AHEFT_REQUIRE(policy != nullptr,
                "contention policy factory returned null");
  return policy;
}

std::vector<std::string> ContentionPolicyRegistry::names() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> result;
  result.reserve(impl_->factories.size());
  for (const auto& [name, factory] : impl_->factories) {
    result.push_back(name);
  }
  return result;
}

}  // namespace aheft::core
