#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/simulation.hpp"
#include "util/prng.hpp"

namespace eternal::sim {
namespace {

std::uint64_t registry_count(const char* name) {
  return obs::Registry::global().counter(name).value();
}

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulation, SimultaneousEventsAreFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, AfterIsRelative) {
  Simulation sim;
  Time fired = 0;
  sim.at(100, [&] {
    sim.after(50, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, 150u);
}

TEST(Simulation, CancelledTimerDoesNotFire) {
  Simulation sim;
  bool fired = false;
  auto h = sim.at(10, [&] { fired = true; });
  h.cancel();
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, TimerActiveReflectsState) {
  Simulation sim;
  auto h = sim.at(10, [] {});
  EXPECT_TRUE(h.active());
  sim.run();
  EXPECT_FALSE(h.active());
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int count = 0;
  sim.at(10, [&] { ++count; });
  sim.at(20, [&] { ++count; });
  sim.at(30, [&] { ++count; });
  sim.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 20u);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulation, PastEventsClampToNow) {
  Simulation sim;
  sim.at(100, [] {});
  sim.run();
  Time fired = 0;
  sim.at(5, [&] { fired = sim.now(); });  // in the past
  sim.run();
  EXPECT_EQ(fired, 100u);
}

TEST(Simulation, EventLimitCatchesLivelock) {
  Simulation sim;
  sim.set_event_limit(100);
  std::function<void()> loop = [&] { sim.after(1, loop); };
  sim.after(1, loop);
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulation, DeterministicReplay) {
  auto run = [](std::uint64_t seed) {
    Simulation sim(seed);
    std::vector<std::uint64_t> vals;
    for (int i = 0; i < 100; ++i) {
      sim.after(sim.rng().below(1000), [&] { vals.push_back(sim.now()); });
    }
    sim.run();
    return vals;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// --- handle semantics of the pooled event core ---------------------------

TEST(Simulation, StaleHandleCannotTouchReusedSlot) {
  Simulation sim;
  int fired_a = 0;
  int fired_b = 0;
  TimerHandle a = sim.at(10, [&] { ++fired_a; });
  const TimerHandle stale = a;
  a.cancel();
  // The next event takes the slot `a` just freed; the stale copy of `a`'s
  // handle must neither observe nor cancel it.
  TimerHandle b = sim.at(20, [&] { ++fired_b; });
  EXPECT_FALSE(stale.active());
  EXPECT_TRUE(b.active());
  TimerHandle stale_copy = stale;
  stale_copy.cancel();
  EXPECT_TRUE(b.active());
  sim.run();
  EXPECT_EQ(fired_a, 0);
  EXPECT_EQ(fired_b, 1);

  // Same after a fire: the fired event's handle is stale once the slot is
  // reused.
  TimerHandle fired = sim.at(30, [] {});
  sim.run();
  TimerHandle next = sim.at(40, [&] { ++fired_b; });
  EXPECT_FALSE(fired.active());
  fired.cancel();
  EXPECT_TRUE(next.active());
  sim.run();
  EXPECT_EQ(fired_b, 2);
}

TEST(Simulation, CancelTwiceAndCancelAfterFireAreNoOps) {
  Simulation sim;
  int count = 0;
  TimerHandle h = sim.at(10, [&] { ++count; });
  TimerHandle copy = h;
  h.cancel();
  h.cancel();
  copy.cancel();
  EXPECT_FALSE(h.active());
  EXPECT_FALSE(copy.active());
  TimerHandle later = sim.at(20, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  later.cancel();
  later.cancel();
  EXPECT_FALSE(later.active());
  sim.at(30, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulation, MovedFromHandleIsEmpty) {
  Simulation sim;
  bool fired = false;
  TimerHandle a = sim.at(10, [&] { fired = true; });
  TimerHandle b = std::move(a);
  EXPECT_FALSE(a.active());
  a.cancel();  // no-op: `a` no longer names the event
  EXPECT_TRUE(b.active());
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulation, HandleInactiveInsideItsOwnClosure) {
  Simulation sim;
  TimerHandle h;
  bool active_inside = true;
  std::vector<int> kept;
  h = sim.at(10, [&h, &active_inside, &kept,
                  captured = std::vector<int>{1, 2, 3}] {
    active_inside = h.active();
    // Cancelling the running event is a no-op: its closure (and what it
    // captured) lives until it returns.
    h.cancel();
    kept = captured;
  });
  sim.run();
  EXPECT_FALSE(active_inside);
  EXPECT_EQ(kept, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, MassCancellationKeepsTimeThenFifoOrder) {
  Simulation sim;
  std::vector<std::pair<Time, int>> order;
  std::vector<TimerHandle> handles;
  for (int i = 0; i < 1000; ++i) {
    const Time t = 100 + static_cast<Time>((i * 7) % 10);
    handles.push_back(sim.at(t, [&order, &sim, i] {
      order.push_back({sim.now(), i});
    }));
  }
  // Cancel nine in ten: cancelled entries soon outnumber live ones, so the
  // heap is compacted (repeatedly) underneath the survivors.
  for (int i = 0; i < 1000; ++i) {
    if (i % 10 != 0) handles[static_cast<std::size_t>(i)].cancel();
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(handles[static_cast<std::size_t>(i)].active(), i % 10 == 0);
  }
  sim.run();
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t k = 1; k < order.size(); ++k) {
    EXPECT_TRUE(order[k - 1].first < order[k].first ||
                (order[k - 1].first == order[k].first &&
                 order[k - 1].second < order[k].second))
        << "at " << k;
  }
}

TEST(Simulation, ClosureLargerThanInlineStorageRunsAndIsFreed) {
  Simulation sim;
  auto token = std::make_shared<int>(0);
  std::array<std::uint8_t, Simulation::kInlineClosure + 64> big{};
  big[0] = 7;
  int seen = 0;
  sim.at(10, [&seen, big, token] { seen = big[0] + *token; });
  TimerHandle cancelled = sim.at(20, [big, token] { (void)big; });
  EXPECT_EQ(token.use_count(), 3);
  cancelled.cancel();
  EXPECT_EQ(token.use_count(), 2);  // freed at cancel, not at pop
  sim.run();
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(token.use_count(), 1);  // freed once it ran
}

TEST(Simulation, PendingClosuresDieWithTheSimulation) {
  auto token = std::make_shared<int>(0);
  {
    Simulation sim;
    sim.at(10, [token] {});
    std::array<std::uint8_t, Simulation::kInlineClosure + 1> big{};
    sim.at(20, [token, big] { (void)big; });
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulation, CancelledDeliveryReleasesItsSlabAtOnce) {
  Simulation sim;
  cdr::SlabPool& pool = cdr::SlabPool::global();
  const std::size_t baseline = pool.live();
  TimerHandle h;
  {
    const Frame payload(Bytes(2 * Frame::kInlineCapacity, 0x42));
    ASSERT_FALSE(payload.inline_storage());
    // Shaped like Network::deliver's closure, which must stay inline.
    h = sim.after(100, [net = static_cast<Network*>(nullptr), from = NodeId{0},
                        to = NodeId{1}, payload] {
      (void)net, (void)from, (void)to, (void)payload;
    });
  }
  EXPECT_EQ(pool.live(), baseline + 1);  // the pending closure holds it
  h.cancel();
  EXPECT_EQ(pool.live(), baseline);
  sim.run();
}

TEST(Simulation, NestedSimulationHandsLoggerClockBack) {
  util::Logger& log = util::Logger::instance();
  Simulation outer;
  outer.run_until(500);
  EXPECT_EQ(log.timestamp(), std::optional<std::uint64_t>(500));
  {
    Simulation inner;
    inner.run_until(7);
    EXPECT_EQ(log.timestamp(), std::optional<std::uint64_t>(7));
  }
  EXPECT_EQ(log.timestamp(), std::optional<std::uint64_t>(500));

  // Lifetimes need not nest: ending the older of two live simulations
  // leaves the newer one's clock in place.
  auto first = std::make_unique<Simulation>();
  auto second = std::make_unique<Simulation>();
  second->run_until(42);
  first.reset();
  EXPECT_EQ(log.timestamp(), std::optional<std::uint64_t>(42));
  second.reset();
  EXPECT_EQ(log.timestamp(), std::optional<std::uint64_t>(500));
}

// --- DeadlineTimer --------------------------------------------------------

TEST(DeadlineTimer, ReArmLaterFiresOnceAtTheNewDeadline) {
  Simulation sim;
  std::vector<Time> fired;
  DeadlineTimer t(sim, [&] { fired.push_back(sim.now()); });
  t.arm_at(10);
  t.arm_at(30);
  EXPECT_TRUE(t.active());
  sim.run_until(20);  // the entry queued for 10 moves on; nothing runs
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(sim.events_executed(), 0u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{30}));
  EXPECT_FALSE(t.active());
  EXPECT_EQ(registry_count("sim.timers_scheduled"), 2u);
  EXPECT_EQ(registry_count("sim.events_fired"), 1u);
}

TEST(DeadlineTimer, ReArmEarlierFiresOnceAtTheNewDeadline) {
  Simulation sim;
  std::vector<Time> fired;
  DeadlineTimer t(sim, [&] { fired.push_back(sim.now()); });
  t.arm_at(30);
  t.arm_at(10);
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{10}));
  EXPECT_EQ(sim.now(), 10u);  // the stale entry for 30 did not move time
}

TEST(DeadlineTimer, DisarmThenReArm) {
  Simulation sim;
  std::vector<Time> fired;
  DeadlineTimer t(sim, [&] { fired.push_back(sim.now()); });
  t.arm_at(10);
  t.disarm();
  EXPECT_FALSE(t.active());
  sim.run();
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(sim.now(), 0u);  // dropping a disarmed entry does not move time

  t.arm_at(20);
  t.disarm();
  t.arm_at(25);
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{25}));
}

TEST(DeadlineTimer, InactiveInsideItsOwnClosureAndMayReArmThere) {
  Simulation sim;
  std::vector<Time> fired;
  std::vector<bool> active_inside;
  std::optional<DeadlineTimer> t;
  t.emplace(sim, [&] {
    active_inside.push_back(t->active());
    fired.push_back(sim.now());
    if (fired.size() < 3) t->arm_after(10);
  });
  t->arm_at(10);
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{10, 20, 30}));
  EXPECT_EQ(active_inside, (std::vector<bool>{false, false, false}));
  EXPECT_FALSE(t->active());
}

TEST(DeadlineTimer, EqualDeadlinesAreFifoWithPlainEvents) {
  Simulation sim;
  std::vector<int> order;
  DeadlineTimer t1(sim, [&] { order.push_back(1); });
  DeadlineTimer t2(sim, [&] { order.push_back(2); });
  t2.arm_at(5);  // queued early; re-armed to 10 after event 10 below
  sim.at(10, [&] { order.push_back(10); });
  t1.arm_at(10);
  sim.at(10, [&] { order.push_back(11); });
  t2.arm_at(10);
  sim.at(10, [&] { order.push_back(12); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{10, 1, 11, 2, 12}));
}

TEST(DeadlineTimer, DestroyedTimerNeverFiresAndFreesItsClosure) {
  Simulation sim;
  auto token = std::make_shared<int>(0);
  bool fired = false;
  std::array<std::uint8_t, Simulation::kInlineClosure + 8> big{};
  {
    DeadlineTimer small(sim, [&fired, token] { fired = true; });
    DeadlineTimer large(sim, [&fired, token, big] { fired = big[0] == 0; });
    small.arm_at(10);
    large.arm_at(10);
    large.arm_at(5);  // leaves a stale entry behind as well
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
  // The freed slots are reused by plain events without confusion.
  int plain = 0;
  sim.at(10, [&] { ++plain; });
  sim.at(10, [&] { ++plain; });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(plain, 2);
}

TEST(DeadlineTimer, OutlivedTimerIsDetachedWithItsSimulation) {
  auto token = std::make_shared<int>(0);
  auto sim = std::make_unique<Simulation>();
  DeadlineTimer t(*sim, [token] {});
  t.arm_at(10);
  EXPECT_EQ(token.use_count(), 2);
  sim.reset();
  EXPECT_EQ(token.use_count(), 1);
}

/// The idiom a DeadlineTimer replaces: cancel the pending event and
/// schedule a new one on every arm.
class CancelAndReschedule {
 public:
  template <typename F>
  CancelAndReschedule(Simulation& sim, F&& fn)
      : sim_(sim), fn_(std::forward<F>(fn)) {}
  void arm_at(Time t) {
    handle_.cancel();
    handle_ = sim_.at(t, [this] { fn_(); });
  }
  void arm_after(Time delay) { arm_at(sim_.now() + delay); }
  void disarm() { handle_.cancel(); }
  bool active() const { return handle_.active(); }

 private:
  Simulation& sim_;
  std::function<void()> fn_;
  TimerHandle handle_;
};

struct Trace {
  std::vector<std::pair<Time, int>> fired;
  std::uint64_t timers_scheduled = 0;
  std::uint64_t events_fired = 0;
};

/// Drives a random arm / re-arm / disarm schedule over a few timers,
/// interleaved with plain events, and records every fired (time, index).
template <typename Timer>
Trace random_schedule(std::uint64_t seed) {
  constexpr int kTimers = 4;
  Trace out;
  {
    Simulation sim(seed);
    util::Xoshiro256 rng(seed);
    std::vector<std::unique_ptr<Timer>> timers;
    for (int i = 0; i < kTimers; ++i) {
      timers.push_back(std::make_unique<Timer>(sim, [&, i] {
        out.fired.emplace_back(sim.now(), i);
        EXPECT_FALSE(timers[static_cast<std::size_t>(i)]->active());
        if (rng.below(3) == 0) {
          timers[static_cast<std::size_t>(i)]->arm_after(rng.below(50));
        }
      }));
    }
    int steps = 0;
    std::function<void()> drive = [&] {
      out.fired.emplace_back(sim.now(), 100 + steps);
      Timer& t = *timers[rng.below(kTimers)];
      switch (rng.below(5)) {
        case 0:
        case 1: t.arm_after(rng.below(100)); break;
        case 2: t.arm_at(sim.now() + rng.below(30)); break;
        case 3: t.disarm(); break;
        default:
          if (!t.active()) t.arm_after(rng.below(60));
          break;
      }
      if (++steps < 2000) sim.after(rng.below(20), drive);
    };
    sim.after(0, drive);
    // Bounded runs first, so deadlines are resolved at run_until's bound.
    for (Time bound = 37; bound < 30000; bound += 37) sim.run_until(bound);
    sim.run();
    out.timers_scheduled = registry_count("sim.timers_scheduled");
    out.events_fired = registry_count("sim.events_fired");
  }
  return out;
}

TEST(DeadlineTimer, MatchesCancelAndRescheduleOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Trace deadline = random_schedule<DeadlineTimer>(seed);
    const Trace reference = random_schedule<CancelAndReschedule>(seed);
    ASSERT_GT(deadline.fired.size(), 2000u) << "seed " << seed;
    EXPECT_EQ(deadline.fired, reference.fired) << "seed " << seed;
    EXPECT_EQ(deadline.timers_scheduled, reference.timers_scheduled)
        << "seed " << seed;
    EXPECT_EQ(deadline.events_fired, reference.events_fired)
        << "seed " << seed;
  }
}

/// Builds a Frame from literal bytes (Frame is an immutable WireBuf now).
Frame frame(std::initializer_list<std::uint8_t> b) {
  return Frame(Bytes(b));
}

struct NetFixture : ::testing::Test {
  Simulation sim{1};
  NetParams params{};
  Network net{sim, 4, params};
  std::vector<std::vector<std::pair<NodeId, Bytes>>> inbox{4};

  void SetUp() override {
    for (NodeId i = 0; i < 4; ++i) {
      net.set_handler(i, [this, i](NodeId from, const Frame& data) {
        inbox[i].push_back({from, data.to_bytes()});
      });
    }
  }
};

TEST_F(NetFixture, UnicastDelivers) {
  net.unicast(0, 1, frame({1, 2, 3}));
  sim.run();
  ASSERT_EQ(inbox[1].size(), 1u);
  EXPECT_EQ(inbox[1][0].first, 0u);
  EXPECT_EQ(inbox[1][0].second, (Bytes{1, 2, 3}));
  EXPECT_TRUE(inbox[0].empty());
}

TEST_F(NetFixture, UnicastHasLatency) {
  net.unicast(0, 1, frame({1}));
  EXPECT_TRUE(inbox[1].empty());  // not delivered synchronously
  sim.run();
  EXPECT_GE(sim.now(), params.base_latency);
}

TEST_F(NetFixture, MulticastExcludesSender) {
  net.multicast(0, frame({9}));
  sim.run();
  EXPECT_TRUE(inbox[0].empty());
  EXPECT_EQ(inbox[1].size(), 1u);
  EXPECT_EQ(inbox[2].size(), 1u);
  EXPECT_EQ(inbox[3].size(), 1u);
}

TEST_F(NetFixture, CrashedNodeNeitherSendsNorReceives) {
  net.crash(2);
  net.multicast(0, frame({1}));
  net.unicast(2, 1, frame({2}));
  sim.run();
  EXPECT_TRUE(inbox[2].empty());
  ASSERT_EQ(inbox[1].size(), 1u);  // only node 0's multicast
  EXPECT_EQ(inbox[1][0].first, 0u);
}

TEST_F(NetFixture, RecoverRestoresDelivery) {
  net.crash(2);
  net.recover(2);
  net.unicast(0, 2, frame({5}));
  sim.run();
  EXPECT_EQ(inbox[2].size(), 1u);
}

TEST_F(NetFixture, PartitionBlocksAcrossComponents) {
  net.set_partitions({{0, 1}, {2, 3}});
  net.multicast(0, frame({7}));
  sim.run();
  EXPECT_EQ(inbox[1].size(), 1u);
  EXPECT_TRUE(inbox[2].empty());
  EXPECT_TRUE(inbox[3].empty());
  EXPECT_TRUE(net.reachable(0, 1));
  EXPECT_FALSE(net.reachable(0, 2));
}

TEST_F(NetFixture, HealRestoresConnectivity) {
  net.set_partitions({{0, 1}, {2, 3}});
  net.heal_partitions();
  net.multicast(0, frame({7}));
  sim.run();
  EXPECT_EQ(inbox[2].size(), 1u);
}

TEST_F(NetFixture, MessagesInFlightAcrossPartitionAreDropped) {
  net.unicast(0, 2, frame({1}));
  net.set_partitions({{0, 1}, {2, 3}});  // partition forms before delivery
  sim.run();
  EXPECT_TRUE(inbox[2].empty());
  EXPECT_EQ(net.stats().datagrams_partitioned, 1u);
}

TEST_F(NetFixture, LossDropsApproximatelyAtRate) {
  NetParams lossy;
  lossy.loss_probability = 0.5;
  net.set_params(lossy);
  for (int i = 0; i < 1000; ++i) net.unicast(0, 1, frame({1}));
  sim.run();
  EXPECT_GT(inbox[1].size(), 350u);
  EXPECT_LT(inbox[1].size(), 650u);
  EXPECT_EQ(inbox[1].size() + net.stats().datagrams_lost, 1000u);
}

TEST_F(NetFixture, BandwidthAddsSizeCost) {
  NetParams slow;
  slow.jitter = 0;
  slow.bytes_per_us = 1.0;  // 1 byte per microsecond
  net.set_params(slow);
  net.unicast(0, 1, Frame(Bytes(1000, 0)));
  sim.run();
  EXPECT_EQ(sim.now(), slow.base_latency + 1000);
}

TEST_F(NetFixture, StatsCountTraffic) {
  net.unicast(0, 1, frame({1, 2}));
  net.multicast(1, frame({3}));
  sim.run();
  EXPECT_EQ(net.stats().unicasts_sent, 1u);
  EXPECT_EQ(net.stats().multicasts_sent, 1u);
  EXPECT_EQ(net.stats().bytes_sent, 3u);
  EXPECT_EQ(net.stats().datagrams_delivered, 4u);
}

// --- compound-fault interactions -----------------------------------------
// The soak chaos campaigns compose motifs freely (partition + link block +
// gray slowdown + loss, overlapping and healing mid-flight); these tests
// pin the network's composition semantics the campaigns rely on.

TEST_F(NetFixture, HealDuringFlightRestoresDelivery) {
  // A datagram sent *before* the cut, with the partition forming and
  // healing while it is in flight, arrives: only the delivery-time check
  // matters for pre-cut traffic.
  net.unicast(0, 2, frame({1}));
  net.set_partitions({{0, 1}, {2, 3}});
  net.heal_partitions();
  sim.run();
  EXPECT_EQ(inbox[2].size(), 1u);
  // A datagram sent *during* the cut is gone for good — healing before its
  // nominal delivery time does not resurrect it (it was never sent on the
  // wire), so retransmission protocols must re-send after a heal.
  net.set_partitions({{0, 1}, {2, 3}});
  net.unicast(0, 2, frame({2}));
  net.heal_partitions();
  sim.run();
  EXPECT_EQ(inbox[2].size(), 1u);
  EXPECT_EQ(net.stats().datagrams_partitioned, 1u);
}

TEST_F(NetFixture, LossAndPartitionOverlapCountSeparately) {
  NetParams lossy;
  lossy.loss_probability = 0.5;
  net.set_params(lossy);
  net.set_partitions({{0, 1}, {2, 3}});
  for (int i = 0; i < 400; ++i) {
    net.unicast(0, 1, frame({1}));  // same side: subject to loss only
    net.unicast(0, 2, frame({2}));  // across the cut: partitioned, not lost
  }
  sim.run();
  EXPECT_TRUE(inbox[2].empty());
  EXPECT_EQ(net.stats().datagrams_partitioned, 400u);
  EXPECT_GT(inbox[1].size(), 100u);  // loss is per-receiver, ~50%
  EXPECT_LT(inbox[1].size(), 300u);
  EXPECT_EQ(inbox[1].size() + net.stats().datagrams_lost, 400u);
}

TEST_F(NetFixture, RePartitionBeforeHealReplacesComponents) {
  net.set_partitions({{0, 1}, {2, 3}});
  // The second cut replaces the first outright: 0/1 split apart, 0/2 join.
  net.set_partitions({{0, 2}, {1, 3}});
  EXPECT_TRUE(net.reachable(0, 2));
  EXPECT_FALSE(net.reachable(0, 1));
  net.unicast(0, 2, frame({1}));
  net.unicast(0, 1, frame({2}));
  sim.run();
  EXPECT_EQ(inbox[2].size(), 1u);
  EXPECT_TRUE(inbox[1].empty());
}

TEST_F(NetFixture, InFlightDatagramDroppedWhenLinkBlockForms) {
  net.unicast(0, 1, frame({1}));
  net.block_link(0, 1);  // forms while the datagram is in flight
  sim.run();
  EXPECT_TRUE(inbox[1].empty());
  EXPECT_EQ(net.stats().datagrams_blocked, 1u);
  // The reverse direction was never blocked.
  net.unicast(1, 0, frame({2}));
  sim.run();
  EXPECT_EQ(inbox[0].size(), 1u);
}

TEST_F(NetFixture, LinkBlockComposesWithPartitionAndHeal) {
  net.block_link(0, 1);
  net.set_partitions({{0, 1}, {2, 3}});
  net.multicast(0, frame({7}));
  sim.run();
  EXPECT_TRUE(inbox[1].empty());  // same side, but the directed block holds
  EXPECT_TRUE(inbox[2].empty());  // other side of the cut
  EXPECT_EQ(net.stats().datagrams_blocked, 1u);
  EXPECT_EQ(net.stats().datagrams_partitioned, 2u);
  // heal_partitions is the campaign's full-connectivity restore: it clears
  // directed blocks along with the partition oracle.
  net.heal_partitions();
  net.multicast(0, frame({8}));
  sim.run();
  EXPECT_EQ(inbox[1].size(), 1u);
  EXPECT_EQ(inbox[2].size(), 1u);
  EXPECT_EQ(inbox[3].size(), 1u);
}

TEST_F(NetFixture, CrashInsideMinorityThenRecoverAfterHeal) {
  net.set_partitions({{0, 1}, {2, 3}});
  net.crash(2);
  net.heal_partitions();
  net.unicast(0, 2, frame({1}));
  sim.run();
  EXPECT_TRUE(inbox[2].empty());  // healed cut, node still down
  net.recover(2);
  net.unicast(0, 2, frame({2}));
  sim.run();
  ASSERT_EQ(inbox[2].size(), 1u);
  EXPECT_EQ(inbox[2][0].second, (Bytes{2}));
}

TEST_F(NetFixture, SlowdownDelaysThroughPartitionHeal) {
  NetParams quiet;
  quiet.jitter = 0;
  net.set_params(quiet);
  net.set_slowdown(1, {1.0, 5000});  // gray node: +5ms on every datagram
  net.unicast(0, 1, frame({1}));
  // The cut forms and heals while the delayed datagram is in flight; the
  // gray delay must not strand it past the delivery-time check.
  net.set_partitions({{0, 1}, {2, 3}});
  net.heal_partitions();
  sim.run();
  ASSERT_EQ(inbox[1].size(), 1u);
  EXPECT_GE(sim.now(), quiet.base_latency + 5000);
  // clear_slowdowns restores nominal transit for subsequent traffic.
  net.clear_slowdowns();
  const Time healed_at = sim.now();
  net.unicast(0, 1, frame({2}));
  sim.run();
  EXPECT_EQ(sim.now() - healed_at, quiet.base_latency);
}

TEST(FaultPlan, ScriptedActionsApplyAtTime) {
  Simulation sim;
  Network net(sim, 3);
  FaultPlan plan(net);
  plan.crash_at(100, 1)
      .partition_at(200, {{0}, {2}})
      .heal_at(300)
      .recover_at(400, 1);
  plan.arm();

  sim.run_until(150);
  EXPECT_FALSE(net.is_up(1));
  sim.run_until(250);
  EXPECT_FALSE(net.reachable(0, 2));
  sim.run_until(350);
  EXPECT_TRUE(net.reachable(0, 2));
  sim.run_until(450);
  EXPECT_TRUE(net.is_up(1));
}

TEST(FaultPlan, DoubleArmThrows) {
  Simulation sim;
  Network net(sim, 1);
  FaultPlan plan(net);
  plan.arm();
  EXPECT_THROW(plan.arm(), std::logic_error);
}

TEST(FaultPlan, DescribeListsSteps) {
  Simulation sim;
  Network net(sim, 2);
  FaultPlan plan(net);
  plan.crash_at(10, 0).heal_at(20);
  const std::string desc = plan.describe();
  EXPECT_NE(desc.find("crash node 0"), std::string::npos);
  EXPECT_NE(desc.find("heal"), std::string::npos);
}

}  // namespace
}  // namespace eternal::sim
