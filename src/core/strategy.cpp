#include "core/strategy.h"

#include <mutex>
#include <utility>
#include <vector>

#include "support/assert.h"

namespace aheft::core {

std::string to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kStaticHeft:
      return "heft";
    case StrategyKind::kAdaptiveAheft:
      return "aheft";
    case StrategyKind::kDynamic:
      return "dynamic";
  }
  return "unknown";
}

std::optional<StrategyKind> strategy_from_string(std::string_view text) {
  for (const StrategyKind kind :
       {StrategyKind::kStaticHeft, StrategyKind::kAdaptiveAheft,
        StrategyKind::kDynamic}) {
    if (text == to_string(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

std::vector<std::string> strategy_names() {
  return {to_string(StrategyKind::kStaticHeft),
          to_string(StrategyKind::kAdaptiveAheft),
          to_string(StrategyKind::kDynamic)};
}

namespace {

/// Static HEFT and AHEFT share the planner machinery; they differ only in
/// whether the planner reacts to events after the release-time plan.
class PlannerDriver final : public StrategyDriver {
 public:
  PlannerDriver(StrategyKind kind, const StrategyConfig& config)
      : kind_(kind), config_(config.planner) {
    if (kind == StrategyKind::kStaticHeft) {
      config_.react_to_pool_changes = false;  // plan once, never adapt
      config_.react_to_variance = false;
    }
  }

  [[nodiscard]] StrategyKind kind() const override { return kind_; }
  [[nodiscard]] std::string name() const override {
    return kind_ == StrategyKind::kStaticHeft ? "HEFT (static)"
                                              : "AHEFT (adaptive)";
  }

  void launch(SimulationSession& session, const WorkflowInstance& instance,
              Completion done) override {
    auto owned = std::make_unique<AdaptivePlanner>(
        *instance.dag, *instance.estimates, *instance.actual, config_);
    AdaptivePlanner* planner = owned.get();
    {
      // Parallel solo baselines launch concurrently; only ownership
      // registration is shared — the planner itself stays confined to
      // the shard it launched on.
      const std::lock_guard<std::mutex> lock(mutex_);
      launches_.push_back(std::move(owned));
    }
    planner->launch(session, instance.arrival, std::move(done),
                    instance.priority);
  }

 private:
  StrategyKind kind_;
  PlannerConfig config_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<AdaptivePlanner>> launches_;
};

class DynamicDriver final : public StrategyDriver {
 public:
  explicit DynamicDriver(const StrategyConfig& config)
      : contention_aware_(config.planner.contention_aware) {}

  [[nodiscard]] StrategyKind kind() const override {
    return StrategyKind::kDynamic;
  }
  [[nodiscard]] std::string name() const override {
    return "min-min (dynamic)";
  }

  void launch(SimulationSession& session, const WorkflowInstance& instance,
              Completion done) override {
    auto owned = std::make_unique<DynamicExecution>(
        session, *instance.dag, *instance.actual, instance.priority,
        contention_aware_);
    DynamicExecution* execution = owned.get();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      launches_.push_back(std::move(owned));
    }
    execution->launch(instance.arrival, std::move(done));
  }

 private:
  bool contention_aware_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<DynamicExecution>> launches_;
};

}  // namespace

std::unique_ptr<StrategyDriver> make_strategy_driver(
    StrategyKind kind, const StrategyConfig& config) {
  switch (kind) {
    case StrategyKind::kStaticHeft:
    case StrategyKind::kAdaptiveAheft:
      return std::make_unique<PlannerDriver>(kind, config);
    case StrategyKind::kDynamic:
      return std::make_unique<DynamicDriver>(config);
  }
  throw std::invalid_argument("unknown strategy kind");
}

StrategyOutcome run_alone(const SessionEnvironment& env,
                          StrategyDriver& driver,
                          const WorkflowInstance& instance) {
  SimulationSession session(env);
  StrategyOutcome outcome;
  bool completed = false;
  driver.launch(session, instance, [&](StrategyOutcome result) {
    outcome = std::move(result);
    completed = true;
  });
  session.run();
  AHEFT_ASSERT(completed, "strategy run ended with unfinished workflow");
  return outcome;
}

StrategyOutcome run_strategy(StrategyKind kind, const dag::Dag& dag,
                             const grid::CostProvider& estimates,
                             const grid::CostProvider& actual,
                             const SessionEnvironment& env,
                             const StrategyConfig& config) {
  const std::unique_ptr<StrategyDriver> driver =
      make_strategy_driver(kind, config);
  return run_alone(env, *driver,
                   WorkflowInstance{.name = dag.name(),
                                    .dag = &dag,
                                    .estimates = &estimates,
                                    .actual = &actual});
}

}  // namespace aheft::core
