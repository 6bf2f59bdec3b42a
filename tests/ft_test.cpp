#include <gtest/gtest.h>

#include "app/servants.hpp"
#include "ft/fault_detector.hpp"
#include "ft/replication_manager.hpp"

namespace eternal::ft {
namespace {

using app::Counter;
using sim::kMillisecond;
using sim::kSecond;
using sim::NodeId;

struct Cluster {
  explicit Cluster(std::size_t n, std::uint64_t seed = 1)
      : sim(seed), net(sim, n), fabric(sim, net), domain(fabric),
        rm(domain, notifier) {
    fabric.start_all();
  }

  bool converge(sim::Time timeout = 2 * kSecond) {
    const bool ok = fabric.run_until_converged(timeout);
    sim.run_for(300 * kMillisecond);
    return ok;
  }

  std::int64_t incr(NodeId node, const std::string& group, std::int64_t d) {
    cdr::Writer enc;
    enc.put_longlong(d);
    cdr::Bytes out =
        domain.client(node).invoke(group, "incr", enc.written()).get();
    cdr::Decoder dec(out);
    return dec.get_longlong();
  }

  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  rep::Domain domain;
  FaultNotifier notifier;
  ReplicationManager rm;
};

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

TEST(Props, DefaultsAreValid) {
  PropertyManager pm;
  EXPECT_NO_THROW(PropertyManager::validate(pm.get_default_properties()));
}

TEST(Props, RejectsZeroMinimum) {
  Properties p;
  p.minimum_number_replicas = 0;
  EXPECT_THROW(PropertyManager::validate(p), InvalidProperty);
}

TEST(Props, RejectsInitialBelowMinimum) {
  Properties p;
  p.initial_number_replicas = 1;
  p.minimum_number_replicas = 3;
  EXPECT_THROW(PropertyManager::validate(p), InvalidProperty);
}

TEST(Props, RejectsApplicationControlledStyles) {
  Properties p;
  p.membership_style = MembershipStyle::ApplicationControlled;
  EXPECT_THROW(PropertyManager::validate(p), InvalidProperty);
  p.membership_style = MembershipStyle::InfrastructureControlled;
  p.consistency_style = ConsistencyStyle::ApplicationControlled;
  EXPECT_THROW(PropertyManager::validate(p), InvalidProperty);
}

TEST(Props, RejectsTimeoutAboveInterval) {
  Properties p;
  p.fault_monitoring_interval = 10 * kMillisecond;
  p.fault_monitoring_timeout = 20 * kMillisecond;
  EXPECT_THROW(PropertyManager::validate(p), InvalidProperty);
}

TEST(Props, GroupOverridesBeatDefaults) {
  PropertyManager pm;
  Properties p = pm.get_default_properties();
  p.replication_style = rep::Style::WarmPassive;
  pm.set_properties("g", p);
  EXPECT_EQ(pm.get_properties("g").replication_style,
            rep::Style::WarmPassive);
  EXPECT_EQ(pm.get_properties("other").replication_style,
            rep::Style::Active);
  pm.remove_properties("g");
  EXPECT_EQ(pm.get_properties("g").replication_style, rep::Style::Active);
}

// ---------------------------------------------------------------------------
// IOGR
// ---------------------------------------------------------------------------

TEST(IogrTest, EncodeDecodeRoundTrip) {
  Iogr iogr;
  iogr.type_id = "IDL:ctr:1.0";
  iogr.group = "ctr";
  iogr.version = 7;
  iogr.profiles = {{0, {'c', 't', 'r'}}, {2, {'c', 't', 'r'}}};
  EXPECT_EQ(Iogr::decode(iogr.encode()), iogr);
}

// ---------------------------------------------------------------------------
// FaultDetector
// ---------------------------------------------------------------------------

TEST(Detector, DetectsCrashWithinIntervalPlusTimeout) {
  Cluster c(3);
  ASSERT_TRUE(c.converge());
  FaultDetector det(c.sim, c.fabric.group(0), c.notifier);
  FaultDetector responder(c.sim, c.fabric.group(2), c.notifier);
  responder.start();
  const sim::Time interval = 40 * kMillisecond;
  const sim::Time timeout = 15 * kMillisecond;
  det.monitor(2, interval, timeout);
  c.sim.run_for(300 * kMillisecond);
  EXPECT_FALSE(det.suspects(2));
  EXPECT_TRUE(c.notifier.history().empty());

  const sim::Time crash_at = c.sim.now();
  c.fabric.crash(2);
  c.sim.run_for(500 * kMillisecond);
  ASSERT_TRUE(det.suspects(2));
  ASSERT_FALSE(c.notifier.history().empty());
  const FaultReport& report = c.notifier.history().front();
  EXPECT_EQ(report.node, 2u);
  EXPECT_EQ(report.type, "CRASH");
  // Detection latency bounded by interval + timeout (+ ordering slack).
  EXPECT_LE(report.when - crash_at, interval + timeout + 50 * kMillisecond);
}

TEST(Detector, RecoveryClearsSuspicion) {
  Cluster c(3);
  ASSERT_TRUE(c.converge());
  FaultDetector det(c.sim, c.fabric.group(0), c.notifier);
  FaultDetector responder(c.sim, c.fabric.group(1), c.notifier);
  responder.start();
  det.monitor(1, 30 * kMillisecond, 10 * kMillisecond);
  c.fabric.crash(1);
  c.sim.run_for(300 * kMillisecond);
  ASSERT_TRUE(det.suspects(1));
  c.fabric.restart(1);
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.sim.run_for(500 * kMillisecond);
  EXPECT_FALSE(det.suspects(1));
  bool recovered = false;
  for (const auto& r : c.notifier.history()) {
    if (r.type == "RECOVERED" && r.node == 1) recovered = true;
  }
  EXPECT_TRUE(recovered);
}

TEST(Detector, UnmonitorStopsReports) {
  Cluster c(2);
  ASSERT_TRUE(c.converge());
  FaultDetector det(c.sim, c.fabric.group(0), c.notifier);
  FaultDetector responder(c.sim, c.fabric.group(1), c.notifier);
  responder.start();
  det.monitor(1, 20 * kMillisecond, 5 * kMillisecond);
  det.unmonitor(1);
  c.fabric.crash(1);
  c.sim.run_for(300 * kMillisecond);
  EXPECT_TRUE(c.notifier.history().empty());
}

// ---------------------------------------------------------------------------
// ReplicationManager
// ---------------------------------------------------------------------------

TEST(Manager, CreateObjectPlacesInitialReplicas) {
  Cluster c(5);
  ASSERT_TRUE(c.converge());
  c.rm.register_factory(
      "ctr", [](NodeId) { return std::make_shared<Counter>(); });
  Properties p;
  p.initial_number_replicas = 3;
  p.minimum_number_replicas = 2;
  c.rm.properties().set_properties("ctr", p);

  Iogr iogr = c.rm.create_object("ctr");
  EXPECT_EQ(iogr.profiles.size(), 3u);
  EXPECT_EQ(iogr.version, 1u);
  c.sim.run_for(kSecond);
  EXPECT_EQ(c.incr(4, "ctr", 5), 5);
}

TEST(Manager, CreateWithoutFactoryThrows) {
  Cluster c(3);
  EXPECT_THROW(c.rm.create_object("nope"), ObjectGroupError);
}

TEST(Manager, MinimumReplicasRestoredAfterCrash) {
  Cluster c(5);
  ASSERT_TRUE(c.converge());
  c.rm.register_factory(
      "ctr", [](NodeId) { return std::make_shared<Counter>(); });
  Properties p;
  p.initial_number_replicas = 3;
  p.minimum_number_replicas = 3;
  c.rm.properties().set_properties("ctr", p);
  c.rm.create_object("ctr", std::vector<NodeId>{0, 1, 2});
  c.sim.run_for(kSecond);
  EXPECT_EQ(c.incr(4, "ctr", 7), 7);

  c.fabric.crash(1);
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.sim.run_for(3 * kSecond);

  // A replacement replica was spawned on a spare node and synced.
  EXPECT_GE(c.rm.replicas_spawned(), 1u);
  EXPECT_EQ(c.rm.locations_of("ctr").size(), 3u);
  EXPECT_EQ(c.incr(4, "ctr", 1), 8);
  // The newcomer carries the transferred state.
  for (NodeId n : c.rm.locations_of("ctr")) {
    auto replica = std::dynamic_pointer_cast<Counter>(
        c.domain.engine(n).local_replica("ctr"));
    ASSERT_NE(replica, nullptr);
    EXPECT_EQ(replica->value(), 8) << "node " << n;
  }
}

TEST(Manager, IogrVersionBumpsOnMembershipChange) {
  Cluster c(4);
  ASSERT_TRUE(c.converge());
  c.rm.register_factory(
      "ctr", [](NodeId) { return std::make_shared<Counter>(); });
  c.rm.create_object("ctr", std::vector<NodeId>{0, 1});
  c.sim.run_for(kSecond);
  const auto v1 = c.rm.iogr("ctr").version;
  c.rm.add_member("ctr", 2);
  c.sim.run_for(2 * kSecond);
  EXPECT_GT(c.rm.iogr("ctr").version, v1);
  EXPECT_EQ(c.rm.locations_of("ctr").size(), 3u);
}

TEST(Manager, AddMemberTwiceThrows) {
  Cluster c(3);
  ASSERT_TRUE(c.converge());
  c.rm.register_factory(
      "ctr", [](NodeId) { return std::make_shared<Counter>(); });
  c.rm.create_object("ctr", std::vector<NodeId>{0, 1});
  EXPECT_THROW(c.rm.add_member("ctr", 0), ObjectGroupError);
  EXPECT_THROW(c.rm.remove_member("ctr", 2), ObjectGroupError);
}

TEST(Manager, LiveUpgradeReplacesReplicasWithoutDowntime) {
  // The paper's closing vision: mask *deliberate* removal the same way as
  // failure, replacing every replica one by one while the service runs.
  Cluster c(6);
  ASSERT_TRUE(c.converge());
  c.rm.register_factory(
      "ctr", [](NodeId) { return std::make_shared<Counter>(); });
  Properties p;
  p.initial_number_replicas = 3;
  p.minimum_number_replicas = 2;
  c.rm.properties().set_properties("ctr", p);
  c.rm.create_object("ctr", std::vector<NodeId>{0, 1, 2});
  c.sim.run_for(kSecond);

  std::int64_t expect = 0;
  auto work = [&] { EXPECT_EQ(c.incr(5, "ctr", 1), ++expect); };

  work();
  // Upgrade: move replicas 0,1,2 -> 3,4, one at a time, service live.
  c.rm.add_member("ctr", 3);
  c.sim.run_for(2 * kSecond);
  work();
  c.rm.remove_member("ctr", 0);
  c.sim.run_for(kSecond);
  work();
  c.rm.add_member("ctr", 4);
  c.sim.run_for(2 * kSecond);
  work();
  c.rm.remove_member("ctr", 1);
  c.sim.run_for(kSecond);
  work();
  c.rm.remove_member("ctr", 2);
  c.sim.run_for(kSecond);
  work();

  c.sim.run_for(kSecond);
  for (NodeId n : {3u, 4u}) {
    auto replica = std::dynamic_pointer_cast<Counter>(
        c.domain.engine(n).local_replica("ctr"));
    ASSERT_NE(replica, nullptr);
    EXPECT_EQ(replica->value(), expect) << "node " << n;
  }
}

}  // namespace
}  // namespace eternal::ft
