#include "sim/simulation.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace eternal::sim {

Simulation::Simulation(std::uint64_t seed)
    : seed_(seed),
      rng_(seed),
      events_fired_(obs::fresh_counter("sim.events_fired")),
      timers_scheduled_(obs::fresh_counter("sim.timers_scheduled")) {
  util::Logger::instance().push_time_source(this, [this] { return now_; });
}

Simulation::~Simulation() {
  // Pending closures die with the simulation, and so do the closures of
  // deadline timers, which are detached. A closure's destructor may cancel
  // other handles; those slots are released in place and skipped.
  for (std::uint32_t i = 0; i < slot_count_; ++i) {
    Slot& s = slot(i);
    if (s.ops == nullptr) continue;
    if (DeadlineTimer* d = std::exchange(s.owner, nullptr)) d->sim_ = nullptr;
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
  push(Entry{t, next_seq_++, i, gen});
  timers_scheduled_.inc();
  return TimerHandle(this, i, gen);
}

void Simulation::push(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulation::count_stale() noexcept {
  ++dead_;
  if (dead_ > heap_.size() - dead_) compact();
}

void Simulation::cancel(std::uint32_t i, std::uint32_t gen) noexcept {
  Slot& s = slot(i);
  if (s.gen != gen) return;  // already fired, cancelled or reused
  ++s.gen;
  release_slot(i);
  count_stale();
}

void Simulation::drop_deadline(DeadlineTimer& d) noexcept {
  Slot& s = slot(d.slot_);
  s.owner = nullptr;
  ++s.gen;
  release_slot(d.slot_);
  if (d.queued_) count_stale();
}

DeadlineTimer::~DeadlineTimer() {
  if (sim_) sim_->drop_deadline(*this);
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

void Simulation::move_head_later(Time t, std::uint64_t seq) noexcept {
  const std::size_t n = heap_.size();
  Entry e = heap_.front();
  e.time = t;
  e.seq = seq;
  std::size_t i = 0;
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && Later{}(heap_[child], heap_[child + 1])) ++child;
    if (!Later{}(e, heap_[child])) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

bool Simulation::drop_stale_head() {
  while (!heap_.empty()) {
    const Entry& e = heap_.front();
    const Slot& s = slot(e.slot);
    if (s.gen != e.gen) {
      pop_head();
      --dead_;
      continue;
    }
    DeadlineTimer* d = s.owner;
    if (d == nullptr || (d->armed_ && d->due_seq_ == e.seq)) return true;
    if (!d->armed_) {
      d->queued_ = false;
      pop_head();
      continue;
    }
    // Re-armed since this entry was queued: nothing runs, the clock stays.
    d->queued_at_ = d->due_;
    move_head_later(d->due_, d->due_seq_);
  }
  return false;
}

bool Simulation::step() {
  if (!drop_stale_head()) return false;
  const Entry e = heap_.front();
  pop_head();
  now_ = e.time;
  Slot& s = slot(e.slot);
  if (DeadlineTimer* d = s.owner) {
    d->armed_ = false;
    d->queued_ = false;
    events_fired_.inc();
    s.ops->run(s.storage);
    return true;
  }
  // Bump the generation before running: handles to this event read
  // inactive inside its own closure, and cancelling one is a no-op. The
  // slot stays out of the free list until the closure has returned, so
  // events it schedules never land on the storage it runs from.
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
