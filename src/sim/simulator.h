// Discrete-event simulation kernel.
//
// This is the library's substitute for SimJava [15]: a logical clock plus a
// deterministic pending-event set. Entities (the workflow executor, the
// resource-arrival feed, the dynamic scheduler) register callbacks; the
// kernel advances time strictly monotonically.
#ifndef AHEFT_SIM_SIMULATOR_H_
#define AHEFT_SIM_SIMULATOR_H_

#include <cstdint>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace aheft::sim {

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time (the paper's `clock`).
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `when` (must be >= now()).
  EventId schedule_at(Time when, EventQueue::Action action);

  /// Schedules `action` after `delay` (must be >= 0).
  EventId schedule_in(Time delay, EventQueue::Action action);

  /// Cancels a pending event; false if it already fired or was cancelled.
  bool cancel(EventId id);

  /// Runs until the event set is exhausted. Returns the final clock value.
  Time run() { return run_until(kTimeInfinity); }

  /// Runs events with time <= horizon; the clock ends at a finite
  /// horizon, or at the last event's time for an infinite one. Events
  /// beyond the horizon stay pending.
  Time run_until(Time horizon);

  /// Executes exactly one event if one is pending. Returns false when idle.
  bool step();

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  /// Time of the earliest pending event; kTimeInfinity exactly when idle
  /// (the queue rejects infinite times). The sharded core reads it to
  /// pick each epoch's common target.
  [[nodiscard]] Time next_event_time() const { return queue_.next_time(); }
  [[nodiscard]] std::size_t pending_events() const {
    return queue_.live_count();
  }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  /// Pops the earliest event, advances the clock to it and runs it.
  void fire_next();

  EventQueue queue_;
  Time now_ = kTimeZero;
  std::uint64_t executed_ = 0;
};

}  // namespace aheft::sim

#endif  // AHEFT_SIM_SIMULATOR_H_
