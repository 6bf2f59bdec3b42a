// Event-order fingerprint: pins the exact order in which the simulator fires
// events and in which every node delivers ring messages, on three fixed-seed
// scenarios (a crash, a partition followed by a remerge, and skewed clocks
// with a gray node).
//
// Every experiment in this repository relies on the simulator being a pure
// function of its seed. A change to the event core (queue layout, handle
// representation, closure storage) must not move a single event: the
// fingerprints below were computed before such a change and must hold
// after it. The scenarios mix everything that feeds the queue: jittered and
// lossy datagrams, Totem's token/membership timers, self-rescheduling
// application senders and retry timers that are usually cancelled before
// they fire.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "totem/fabric.hpp"

namespace eternal::totem {
namespace {

using sim::kMillisecond;
using sim::NodeId;
using sim::Time;

/// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

struct Scenario {
  static constexpr std::size_t kNodes = 5;

  explicit Scenario(std::uint64_t seed)
      : sim(seed), net(sim, kNodes, lossy()), fabric(sim, net) {
    delivered.resize(kNodes);
    deliveries.resize(kNodes, 0);
    retry.resize(kNodes);
    for (NodeId i = 0; i < kNodes; ++i) {
      fabric.group(i).subscribe("g", [this, i](const GroupMessage& m) {
        delivered[i].mix(m.seq);
        delivered[i].mix(m.sender);
        ++deliveries[i];
        // A sender's own message came back: its retry timer is moot.
        if (m.sender == i) retry[i].cancel();
      });
    }
    fabric.start_all();
    for (NodeId i = 0; i < kNodes; ++i) arm_sender(i);
  }

  static sim::NetParams lossy() {
    sim::NetParams p;
    p.loss_probability = 0.02;
    return p;
  }

  /// Each node multicasts every 2-4 ms. A send with no retry timer pending
  /// arms a 10 ms one; any self-delivery cancels it, so it fires only while
  /// the ring is re-forming.
  void arm_sender(NodeId i) {
    sim.after(2 * kMillisecond + sim.rng().below(2 * kMillisecond),
              [this, i] {
                if (fabric.is_up(i)) send(i);
                arm_sender(i);
              });
  }
  void send(NodeId i) {
    fabric.group(i).send("g", cdr::WireBuf(cdr::Bytes(24, 0x5a)));
    ++sent;
    if (retry[i].active()) return;
    retry[i] = sim.after(10 * kMillisecond, [this, i] {
      ++retries;
      if (fabric.is_up(i)) send(i);
    });
  }

  /// Fires events one at a time until simulated time passes `until`,
  /// mixing each event's (time, firing index) into the event hash.
  void drive(Time until) {
    while (sim.now() < until && sim.step()) {
      events.mix(sim.now());
      events.mix(fired++);
    }
  }

  std::uint64_t fingerprint() const {
    Fnv all = events;
    for (const Fnv& d : delivered) all.mix(d.h);
    return all.h;
  }

  sim::Simulation sim;
  sim::Network net;
  Fabric fabric;
  std::vector<sim::TimerHandle> retry;
  Fnv events;
  std::vector<Fnv> delivered;
  std::vector<std::uint64_t> deliveries;
  std::uint64_t fired = 0;
  std::uint64_t sent = 0;
  std::uint64_t retries = 0;
};

TEST(EventOrder, CrashScenarioFingerprint) {
  Scenario s(7);
  s.drive(200 * kMillisecond);
  s.fabric.crash(2);
  s.drive(600 * kMillisecond);
  s.fabric.restart(2);
  s.drive(1000 * kMillisecond);

  // The scenario is not vacuous: traffic flowed, retries fired and were
  // cancelled, and the crashed node came back and delivered again.
  EXPECT_GT(s.fired, 10000u);
  EXPECT_GT(s.sent, 1000u);
  EXPECT_GT(s.retries, 0u);
  for (NodeId i = 0; i < Scenario::kNodes; ++i) EXPECT_GT(s.deliveries[i], 0u);
  EXPECT_EQ(s.fired, 16190u);
  EXPECT_EQ(s.fingerprint(), 7766032382877246266ull);
}

TEST(EventOrder, PartitionRemergeFingerprint) {
  Scenario s(11);
  s.drive(200 * kMillisecond);
  s.net.set_partitions({{0, 1, 2}, {3, 4}});
  s.drive(600 * kMillisecond);
  s.net.heal_partitions();
  s.drive(1200 * kMillisecond);

  EXPECT_GT(s.fired, 10000u);
  EXPECT_GT(s.sent, 1000u);
  EXPECT_GT(s.retries, 0u);
  for (NodeId i = 0; i < Scenario::kNodes; ++i) EXPECT_GT(s.deliveries[i], 0u);
  EXPECT_TRUE(s.fabric.converged());
  EXPECT_EQ(s.fired, 23266u);
  EXPECT_EQ(s.fingerprint(), 3924999380258073301ull);
}

// Skewed clocks and a gray node. Protocol timers are armed through each
// node's local clock, so each time a node's clock speeds up its next
// token-loss and retransmit arms fall due *earlier* than the ones already
// pending: the one re-arm order the steady ring never produces. Node 1's
// clock switches between nominal and double speed every 7 ms mid-run.
TEST(EventOrder, SkewedClocksFingerprint) {
  Scenario s(13);
  s.fabric.node(1).set_clock_rate(1.25);
  s.fabric.node(3).set_clock_rate(0.8);
  s.net.set_slowdown(4, {1.5, 1500});
  s.drive(300 * kMillisecond);

  bool switching = true;
  bool fast = false;
  std::function<void()> switch_rate = [&] {
    fast = switching && !fast;
    s.fabric.node(1).set_clock_rate(fast ? 2.0 : 1.0);
    if (switching) s.sim.after(7 * kMillisecond, switch_rate);
  };
  s.fabric.node(3).set_clock_rate(1.0);
  switch_rate();
  s.drive(700 * kMillisecond);
  switching = false;
  s.net.set_slowdown(4, {});
  s.drive(1200 * kMillisecond);

  EXPECT_GT(s.fired, 10000u);
  EXPECT_GT(s.sent, 1000u);
  EXPECT_GT(s.retries, 0u);
  for (NodeId i = 0; i < Scenario::kNodes; ++i) EXPECT_GT(s.deliveries[i], 0u);
  EXPECT_TRUE(s.fabric.converged());
  EXPECT_EQ(s.fired, 17131u);
  EXPECT_EQ(s.fingerprint(), 15400132686648942934ull);
}

}  // namespace
}  // namespace eternal::totem
