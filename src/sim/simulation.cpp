#include "sim/simulation.hpp"

#include <algorithm>
#include <stdexcept>

namespace eternal::sim {

Simulation::Simulation(std::uint64_t seed)
    : seed_(seed),
      rng_(seed),
      events_fired_(obs::fresh_counter("sim.events_fired")),
      timers_scheduled_(obs::fresh_counter("sim.timers_scheduled")) {
  util::Logger::instance().push_time_source(this, [this] { return now_; });
}

Simulation::~Simulation() {
  // Pending closures die with the simulation. A closure's destructor may
  // cancel other handles; those slots are released in place and skipped.
  for (std::uint32_t i = 0; i < slot_count_; ++i) {
    Slot& s = slot(i);
    if (s.ops == nullptr) continue;
    ++s.gen;
    release_slot(i);
  }
  util::Logger::instance().drop_time_source(this);
}

std::uint32_t Simulation::acquire_slot() {
  if (free_head_ == kNoSlot) {
    constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    const std::uint32_t base = slot_count_;
    slot_count_ += kChunkSlots;
    for (std::uint32_t k = kChunkSlots; k-- > 0;) {
      slot(base + k).next_free = free_head_;
      free_head_ = base + k;
    }
  }
  const std::uint32_t i = free_head_;
  free_head_ = slot(i).next_free;
  return i;
}

void Simulation::release_slot(std::uint32_t i) noexcept {
  Slot& s = slot(i);
  // Clear ops first: the closure's destructor may re-enter the simulation.
  if (const Ops* ops = std::exchange(s.ops, nullptr)) ops->destroy(s.storage);
  s.next_free = free_head_;
  free_head_ = i;
}

TimerHandle Simulation::enqueue(Time t, std::uint32_t i) {
  if (t < now_) t = now_;
  const std::uint32_t gen = slot(i).gen;
  heap_.push_back(Entry{t, next_seq_++, i, gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  timers_scheduled_.inc();
  return TimerHandle(this, i, gen);
}

void Simulation::cancel(std::uint32_t i, std::uint32_t gen) noexcept {
  Slot& s = slot(i);
  if (s.gen != gen) return;  // already fired, cancelled or reused
  ++s.gen;
  ++dead_;
  release_slot(i);
  if (dead_ > heap_.size() - dead_) compact();
}

void Simulation::compact() {
  std::erase_if(heap_, [this](const Entry& e) { return !live(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_ = 0;
}

void Simulation::pop_head() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

bool Simulation::drop_stale_head() {
  while (!heap_.empty() && !live(heap_.front())) {
    pop_head();
    --dead_;
  }
  return !heap_.empty();
}

bool Simulation::step() {
  if (!drop_stale_head()) return false;
  const Entry e = heap_.front();
  pop_head();
  now_ = e.time;
  // Bump the generation before running: handles to this event read
  // inactive inside its own closure, and cancelling one is a no-op. The
  // slot stays out of the free list until the closure has returned, so
  // events it schedules never land on the storage it runs from.
  Slot& s = slot(e.slot);
  ++s.gen;
  events_fired_.inc();
  try {
    s.ops->run(s.storage);
  } catch (...) {
    release_slot(e.slot);
    throw;
  }
  release_slot(e.slot);
  return true;
}

void Simulation::run() {
  while (step()) {
    if (++executed_ > event_limit_) {
      throw std::runtime_error("simulation event limit exceeded (livelock?)");
    }
  }
}

void Simulation::run_until(Time t) {
  // Cancelled entries at the head are dropped first so their timestamps
  // don't stall us.
  while (drop_stale_head() && heap_.front().time <= t) {
    step();
    if (++executed_ > event_limit_) {
      throw std::runtime_error("simulation event limit exceeded (livelock?)");
    }
  }
  now_ = std::max(now_, t);
}

void Simulation::run_for(Time delta) { run_until(now_ + delta); }

}  // namespace eternal::sim
