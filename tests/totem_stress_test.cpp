// Stress/edge tests for the ring protocol beyond the basic suite:
// leader-targeted crashes, simultaneous failures, multi-way partitions and
// heavy message loss.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "totem/fabric.hpp"

namespace eternal::totem {
namespace {

using sim::kMillisecond;
using sim::kSecond;
using sim::NodeId;

cdr::WireBuf bytes(std::string_view s) {
  return cdr::WireBuf(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

struct Cluster {
  explicit Cluster(std::size_t n, std::uint64_t seed = 1, Params params = {})
      : sim(seed), net(sim, n), fabric(sim, net, params) {
    for (NodeId i = 0; i < n; ++i) {
      fabric.group(i).subscribe("g", [this, i](const GroupMessage& m) {
        delivered[i].push_back(
            std::string(reinterpret_cast<const char*>(m.payload.data()),
                        m.payload.size()));
      });
    }
    fabric.start_all();
  }

  bool converge(sim::Time timeout = 5 * kSecond) {
    return fabric.run_until_converged(timeout);
  }

  sim::Simulation sim;
  sim::Network net;
  Fabric fabric;
  std::map<NodeId, std::vector<std::string>> delivered;
};

TEST(TotemStress, LeaderCrashMidTraffic) {
  Cluster c(5, /*seed=*/8);
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 30; ++i) {
    c.fabric.group(i % 5).send("g", bytes("m" + std::to_string(i)));
  }
  c.sim.run_for(2 * kMillisecond);
  c.fabric.crash(0);  // ring leader (lowest id)
  ASSERT_TRUE(c.converge());
  c.sim.run_for(2 * kSecond);
  for (NodeId n : {2u, 3u, 4u}) {
    EXPECT_EQ(c.delivered[n], c.delivered[1]) << "node " << n;
  }
}

TEST(TotemStress, TwoSimultaneousCrashes) {
  Cluster c(6, /*seed=*/19);
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 40; ++i) {
    c.fabric.group(i % 6).send("g", bytes("x" + std::to_string(i)));
  }
  c.sim.run_for(3 * kMillisecond);
  c.fabric.crash(1);
  c.fabric.crash(4);
  ASSERT_TRUE(c.converge());
  c.sim.run_for(2 * kSecond);
  for (NodeId n : {2u, 3u, 5u}) {
    EXPECT_EQ(c.delivered[n], c.delivered[0]) << "node " << n;
  }
  EXPECT_EQ(c.fabric.node(0).members(), (std::vector<NodeId>{0, 2, 3, 5}));
}

TEST(TotemStress, CrashDuringMembershipChange) {
  Cluster c(5, /*seed=*/27);
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 20; ++i) {
    c.fabric.group(i % 5).send("g", bytes("y" + std::to_string(i)));
  }
  c.fabric.crash(2);
  // Crash another node while the first membership change is in progress.
  c.sim.run_for(20 * kMillisecond);
  c.fabric.crash(3);
  ASSERT_TRUE(c.converge(10 * kSecond));
  c.sim.run_for(2 * kSecond);
  for (NodeId n : {1u, 4u}) {
    EXPECT_EQ(c.delivered[n], c.delivered[0]) << "node " << n;
  }
}

TEST(TotemStress, ThreeWayPartitionAndFullRemerge) {
  Cluster c(6, /*seed=*/4);
  ASSERT_TRUE(c.converge());
  c.net.set_partitions({{0, 1}, {2, 3}, {4, 5}});
  ASSERT_TRUE(c.converge(10 * kSecond));
  EXPECT_EQ(c.fabric.node(0).members(), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(c.fabric.node(2).members(), (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(c.fabric.node(4).members(), (std::vector<NodeId>{4, 5}));
  c.fabric.group(0).send("g", bytes("a"));
  c.fabric.group(2).send("g", bytes("b"));
  c.fabric.group(4).send("g", bytes("c"));
  c.sim.run_for(kSecond);

  c.net.heal_partitions();
  ASSERT_TRUE(c.converge(10 * kSecond));
  for (NodeId n = 0; n < 6; ++n) {
    EXPECT_EQ(c.fabric.node(n).members(),
              (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
  }
  c.fabric.group(3).send("g", bytes("joint"));
  c.sim.run_for(kSecond);
  for (NodeId n = 0; n < 6; ++n) {
    ASSERT_FALSE(c.delivered[n].empty());
    EXPECT_EQ(c.delivered[n].back(), "joint");
  }
}

TEST(TotemStress, PartialRemergeThenFull) {
  Cluster c(6, /*seed=*/14);
  ASSERT_TRUE(c.converge());
  c.net.set_partitions({{0, 1}, {2, 3}, {4, 5}});
  ASSERT_TRUE(c.converge(10 * kSecond));
  // Merge two of the three components first.
  c.net.set_partitions({{0, 1, 2, 3}, {4, 5}});
  ASSERT_TRUE(c.converge(10 * kSecond));
  EXPECT_EQ(c.fabric.node(0).members(), (std::vector<NodeId>{0, 1, 2, 3}));
  c.net.heal_partitions();
  ASSERT_TRUE(c.converge(10 * kSecond));
  EXPECT_EQ(c.fabric.node(5).members(),
            (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
}

TEST(TotemStress, HeavyLossStillConvergesAndOrders) {
  Cluster c(4, /*seed=*/61);
  sim::NetParams lossy;
  lossy.loss_probability = 0.05;  // 5% loss: retransmission-heavy regime
  c.net.set_params(lossy);
  ASSERT_TRUE(c.converge(20 * kSecond));
  for (int i = 0; i < 100; ++i) {
    c.fabric.group(i % 4).send("g", bytes("z" + std::to_string(i)));
  }
  c.sim.run_for(60 * kSecond);
  EXPECT_EQ(c.delivered[0].size(), 100u);
  for (NodeId n : {1u, 2u, 3u}) {
    EXPECT_EQ(c.delivered[n], c.delivered[0]) << "node " << n;
  }
  EXPECT_GT(c.fabric.node(0).stats().retransmissions.value() +
                c.fabric.node(1).stats().retransmissions.value() +
                c.fabric.node(2).stats().retransmissions.value() +
                c.fabric.node(3).stats().retransmissions.value(),
            0u);
}

TEST(TotemStress, RepeatedCrashRestartCycles) {
  Cluster c(4, /*seed=*/70);
  ASSERT_TRUE(c.converge());
  int sent = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    c.fabric.group(0).send("g", bytes("pre" + std::to_string(cycle)));
    ++sent;
    c.sim.run_for(kSecond);
    c.fabric.crash(3);
    ASSERT_TRUE(c.converge());
    c.fabric.group(1).send("g", bytes("mid" + std::to_string(cycle)));
    ++sent;
    c.sim.run_for(kSecond);
    c.fabric.restart(3);
    ASSERT_TRUE(c.converge(10 * kSecond));
  }
  c.sim.run_for(kSecond);
  EXPECT_EQ(c.delivered[0].size(), static_cast<std::size_t>(sent));
  EXPECT_EQ(c.delivered[1], c.delivered[0]);
  EXPECT_EQ(c.delivered[2], c.delivered[0]);
}

TEST(TotemStress, BackloggedSenderDrainsAcrossViewChanges) {
  Cluster c(3, /*seed=*/88);
  ASSERT_TRUE(c.converge());
  // Queue a large backlog, then force a membership change mid-drain.
  for (int i = 0; i < 500; ++i) {
    c.fabric.group(0).send("g", bytes("q" + std::to_string(i)));
  }
  c.sim.run_for(1 * kMillisecond);
  c.fabric.crash(2);
  ASSERT_TRUE(c.converge());
  c.sim.run_for(10 * kSecond);
  EXPECT_EQ(c.delivered[0].size(), 500u);
  EXPECT_EQ(c.delivered[1], c.delivered[0]);
}

}  // namespace
}  // namespace eternal::totem
