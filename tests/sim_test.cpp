#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/simulation.hpp"

namespace eternal::sim {
namespace {

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
