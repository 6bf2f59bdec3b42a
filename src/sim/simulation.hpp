// Deterministic discrete-event simulation engine.
//
// All protocol code in this repository runs on top of this engine: an event
// is a timestamped closure, and time only advances when events execute. Two
// runs with the same seed execute the same events in the same order, which
// is what lets the partition/remerge and failover experiments be exact and
// lets property tests assert replica-state equality byte for byte.
//
// Events are pooled. Each pending event owns a slot in a chunked slab whose
// addresses never move; the slot stores the closure inline (up to
// kInlineClosure bytes, enough for the network's frame-carrying delivery
// closure) or, for anything larger, a pointer to a heap copy. The queue is a
// binary heap of 24-byte POD entries (time, seq, slot, generation) ordered
// by (time, seq). A TimerHandle names a slot and the generation it was
// scheduled under: firing or cancelling an event bumps the slot's
// generation, so every older handle and heap entry for that slot goes stale
// at once. Cancelled entries stay in the heap and are skipped when popped;
// the heap is compacted once they outnumber the live ones.
//
// A DeadlineTimer is a timer that is re-armed far more often than it fires
// (Totem's token-loss and token-retransmit timers). It holds one slot for
// its whole life, with a closure fixed at construction, and records its
// deadline as (due, due_seq) in its own fields. A re-arm still takes a
// fresh seq and counts as a scheduled timer, but it pushes a heap entry
// only when the new deadline is earlier than the entry already queued;
// otherwise the queued entry, once it reaches the head, is moved to the
// stored deadline without running anything. The heap orders by
// (time, seq) alone, so events fire in exactly the order that cancelling
// and re-scheduling would give.
//
// Handle lifetime: a TimerHandle points at its Simulation, so any handle
// whose cancel() or active() can still run must be outlived by that
// Simulation. The same holds for a DeadlineTimer's arm and disarm; a
// DeadlineTimer that outlives its Simulation is detached by it, and its
// destructor then does nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/prng.hpp"

namespace eternal::sim {

/// Simulated time in microseconds since simulation start.
using Time = std::uint64_t;

constexpr Time kMicrosecond = 1;
constexpr Time kMillisecond = 1000;
constexpr Time kSecond = 1000 * 1000;

class Simulation;

/// Cancellable handle to a scheduled event. Cancellation is O(1): the
/// closure is destroyed at once and the queue entry is skipped when popped.
/// A handle reads inactive once its event has fired (already while the
/// event's own closure runs) or been cancelled; a stale handle never
/// affects whatever event later reuses its slot.
class TimerHandle {
 public:
  TimerHandle() = default;
  TimerHandle(const TimerHandle&) = default;
  TimerHandle& operator=(const TimerHandle&) = default;
  /// A moved-from handle is empty, as a default-constructed one.
  TimerHandle(TimerHandle&& o) noexcept
      : sim_(std::exchange(o.sim_, nullptr)), slot_(o.slot_), gen_(o.gen_) {}
  TimerHandle& operator=(TimerHandle&& o) noexcept {
    sim_ = std::exchange(o.sim_, nullptr);
    slot_ = o.slot_;
    gen_ = o.gen_;
    return *this;
  }

  inline void cancel() noexcept;
  inline bool active() const noexcept;

 private:
  friend class Simulation;
  TimerHandle(Simulation* sim, std::uint32_t slot, std::uint32_t gen) noexcept
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulation* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// A re-armable timer with one permanent slot and a fixed closure. Arming
/// replaces the deadline; a disarmed or re-armed deadline never fires. The
/// timer reads inactive once it has fired (already inside its own closure),
/// and may re-arm itself from there. Not movable: the simulation points at
/// it. It must not be destroyed from inside its own closure.
class DeadlineTimer {
 public:
  template <typename F>
  DeadlineTimer(Simulation& sim, F&& fn);
  ~DeadlineTimer();

  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  /// Fire at absolute time t (clamped to now), replacing any deadline.
  inline void arm_at(Time t);
  inline void arm_after(Time delay);
  void disarm() noexcept { armed_ = false; }
  bool active() const noexcept { return armed_; }

 private:
  friend class Simulation;

  Simulation* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  bool armed_ = false;
  bool queued_ = false;  // an entry for the current generation is in the heap
  Time queued_at_ = 0;   // that entry's time
  Time due_ = 0;
  std::uint64_t due_seq_ = 0;
};

class Simulation {
 public:
  /// Closures up to this size are stored in the event's slot; larger ones
  /// are copied to the heap. Sized for the network delivery closure (the
  /// Network pointer, two node ids and a 272-byte cdr::WireBuf).
  static constexpr std::size_t kInlineClosure = 288;

  explicit Simulation(std::uint64_t seed = 1);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time now() const noexcept { return now_; }
  util::Xoshiro256& rng() noexcept { return rng_; }
  /// The seed this run was constructed with; stamped into observability
  /// dumps so violation reports are self-describing.
  std::uint64_t seed() const noexcept { return seed_; }

  /// Schedule fn at absolute time t (clamped to now if in the past).
  template <typename F>
  TimerHandle at(Time t, F&& fn);
  /// Schedule fn after a relative delay.
  template <typename F>
  TimerHandle after(Time delay, F&& fn) {
    return at(now_ + delay, std::forward<F>(fn));
  }

  /// Execute the next pending event; returns false if none remain.
  bool step();
  /// Run until the queue drains. Throws if the event limit is exceeded,
  /// which catches protocol livelock in tests.
  void run();
  /// Run all events with time <= t, then advance the clock to t.
  void run_until(Time t);
  void run_for(Time delta);

  void set_event_limit(std::uint64_t limit) noexcept { event_limit_ = limit; }
  std::uint64_t events_executed() const noexcept { return executed_; }

 private:
  friend class TimerHandle;
  friend class DeadlineTimer;

  /// Type-erased operations on the closure stored in a slot.
  struct Ops {
    void (*run)(void* storage);
    void (*destroy)(void* storage) noexcept;
  };
  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }};
  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* p) noexcept { delete *static_cast<Fn**>(p); }};
  template <typename Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= kInlineClosure &&
      alignof(Fn) <= alignof(std::max_align_t);

  struct Slot {
    alignas(std::max_align_t) std::byte storage[kInlineClosure] = {};
    const Ops* ops = nullptr;  // null while the slot holds no closure
    DeadlineTimer* owner = nullptr;  // set while a DeadlineTimer holds it
    std::uint32_t gen = 1;     // bumped on fire and on cancel
    std::uint32_t next_free = 0;
  };
  struct Entry {
    Time time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;  // FIFO among simultaneous events
    }
  };

  static constexpr std::uint32_t kChunkShift = 7;  // 128 slots per chunk
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  Slot& slot(std::uint32_t i) noexcept {
    return chunks_[i >> kChunkShift][i & ((1u << kChunkShift) - 1)];
  }
  const Slot& slot(std::uint32_t i) const noexcept {
    return chunks_[i >> kChunkShift][i & ((1u << kChunkShift) - 1)];
  }
  std::uint32_t acquire_slot();
  /// Takes a free slot and moves fn into it.
  template <typename F>
  std::uint32_t emplace(F&& fn);
  /// Destroys the slot's closure and returns the slot to the free list.
  void release_slot(std::uint32_t i) noexcept;
  /// Pushes the heap entry for a filled slot and returns its handle.
  TimerHandle enqueue(Time t, std::uint32_t i);
  void cancel(std::uint32_t i, std::uint32_t gen) noexcept;
  void push(const Entry& e);
  /// Counts one more stale heap entry; compacts once they are the majority.
  void count_stale() noexcept;
  /// Retires a DeadlineTimer's queued entry and frees its slot.
  void drop_deadline(DeadlineTimer& d) noexcept;
  bool live(const Entry& e) const noexcept { return slot(e.slot).gen == e.gen; }
  /// Drops the cancelled entries and re-heapifies the rest.
  void compact();
  void pop_head();
  /// Re-keys the head entry to a later (time, seq) and sifts it down.
  void move_head_later(Time t, std::uint64_t seq) noexcept;
  /// Pops cancelled entries and disarmed deadlines off the top and moves
  /// re-armed deadlines to their stored (time, seq), until the head is an
  /// event that will fire; false once the heap is empty.
  bool drop_stale_head();

  Time now_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t event_limit_ = 200'000'000;
  util::Xoshiro256 rng_;
  obs::Counter& events_fired_;     // registry: sim.events_fired
  obs::Counter& timers_scheduled_; // registry: sim.timers_scheduled
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::vector<Entry> heap_;
  std::size_t dead_ = 0;  // cancelled entries still in heap_
};

template <typename F>
std::uint32_t Simulation::emplace(F&& fn) {
  using Fn = std::decay_t<F>;
  const std::uint32_t i = acquire_slot();
  Slot& s = slot(i);
  try {
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
      s.ops = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(s.storage)) Fn*(new Fn(std::forward<F>(fn)));
      s.ops = &kHeapOps<Fn>;
    }
  } catch (...) {
    release_slot(i);
    throw;
  }
  return i;
}

template <typename F>
TimerHandle Simulation::at(Time t, F&& fn) {
  return enqueue(t, emplace(std::forward<F>(fn)));
}

template <typename F>
DeadlineTimer::DeadlineTimer(Simulation& sim, F&& fn)
    : sim_(&sim), slot_(sim.emplace(std::forward<F>(fn))) {
  sim.slot(slot_).owner = this;
}

void DeadlineTimer::arm_at(Time t) {
  // lint: hotpath — every frame on the ring re-arms the token-loss timer
  Simulation& sim = *sim_;
  if (t < sim.now_) t = sim.now_;
  due_ = t;
  due_seq_ = sim.next_seq_++;
  armed_ = true;
  sim.timers_scheduled_.inc();
  // The queued entry resolves to the new deadline when it reaches the head.
  if (queued_ && queued_at_ <= t) return;
  Simulation::Slot& s = sim.slot(slot_);
  if (queued_) {
    ++s.gen;  // the later entry goes stale
    sim.count_stale();
  }
  queued_ = true;
  queued_at_ = t;
  sim.push(Simulation::Entry{t, due_seq_, slot_, s.gen});
}

void DeadlineTimer::arm_after(Time delay) { arm_at(sim_->now_ + delay); }

void TimerHandle::cancel() noexcept {
  if (sim_) sim_->cancel(slot_, gen_);
  sim_ = nullptr;
}

bool TimerHandle::active() const noexcept {
  return sim_ && sim_->slot(slot_).gen == gen_;
}

}  // namespace eternal::sim
