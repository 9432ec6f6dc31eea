#include "sim/simulator.h"

#include <algorithm>

#include "support/assert.h"

namespace aheft::sim {

EventId Simulator::schedule_at(Time when, EventQueue::Action action) {
  AHEFT_REQUIRE(when >= now_, "cannot schedule into the past");
  return queue_.push(when, std::move(action));
}

EventId Simulator::schedule_in(Time delay, EventQueue::Action action) {
  AHEFT_REQUIRE(delay >= 0.0, "negative delay");
  return queue_.push(now_ + delay, std::move(action));
}

bool Simulator::cancel(EventId id) { return queue_.cancel(id); }

void Simulator::fire_next() {
  auto fired = queue_.pop();
  AHEFT_ASSERT(fired.time >= now_, "event queue went backwards in time");
  now_ = fired.time;
  ++executed_;
  fired.action();
}

bool Simulator::step() {
  if (queue_.empty()) {
    return false;
  }
  fire_next();
  return true;
}

Time Simulator::run_until(Time horizon) {
  AHEFT_REQUIRE(horizon >= now_, "horizon is in the past");
  // One queue probe per event: next_time() is infinite only when the
  // queue is empty, so it doubles as the emptiness test.
  for (Time next = queue_.next_time(); next < kTimeInfinity && next <= horizon;
       next = queue_.next_time()) {
    fire_next();
  }
  // Idle up to the horizon: the clock advances even with nothing to do, so
  // callers can observe/modify state "at time t" (SimJava semantics).
  if (horizon < kTimeInfinity) {
    now_ = std::max(now_, horizon);
  }
  return now_;
}

}  // namespace aheft::sim
