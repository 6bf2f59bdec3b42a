#include "sim/simulation.hpp"

#include <stdexcept>

namespace eternal::sim {

Simulation::Simulation(std::uint64_t seed)
    : seed_(seed),
      rng_(seed),
      events_fired_(obs::fresh_counter("sim.events_fired")),
      timers_scheduled_(obs::fresh_counter("sim.timers_scheduled")) {
  util::Logger::instance().set_time_source([this] { return now_; });
}

Simulation::~Simulation() {
  util::Logger::instance().set_time_source({});
}

TimerHandle Simulation::at(Time t, std::function<void()> fn) {
  if (t < now_) t = now_;
  auto ev = std::make_shared<Event>();
  ev->time = t;
  ev->seq = next_seq_++;
  ev->fn = std::move(fn);
  queue_.push(ev);
  timers_scheduled_.inc();
  return TimerHandle(ev);
}

TimerHandle Simulation::after(Time delay, std::function<void()> fn) {
  return at(now_ + delay, std::move(fn));
}

bool Simulation::step() {
  while (!queue_.empty()) {
    auto ev = queue_.top();
    queue_.pop();
    if (ev->cancelled) continue;
    now_ = ev->time;
    // Move the closure out before invoking so an event that re-arms itself
    // does not mutate the object the queue still references.
    auto fn = std::move(ev->fn);
    ev->fired = true;
    events_fired_.inc();
    fn();
    return true;
  }
  return false;
}

void Simulation::run() {
  while (step()) {
    if (++executed_ > event_limit_) {
      throw std::runtime_error("simulation event limit exceeded (livelock?)");
    }
  }
}

void Simulation::run_until(Time t) {
  while (!queue_.empty()) {
    // Skip cancelled events at the head so their timestamps don't stall us.
    auto ev = queue_.top();
    if (ev->cancelled) {
      queue_.pop();
      continue;
    }
    if (ev->time > t) break;
    step();
    if (++executed_ > event_limit_) {
      throw std::runtime_error("simulation event limit exceeded (livelock?)");
    }
  }
  now_ = std::max(now_, t);
}

void Simulation::run_for(Time delta) { run_until(now_ + delta); }

}  // namespace eternal::sim
