// Whole-domain disaster recovery integration tests: kill every replica,
// cold-restart from the durable journals + checkpoints, and verify the
// rebuilt domain matches the pre-crash state — including client retries
// that straddle the restart staying exactly-once.
#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "app/servants.hpp"
#include "ft/recovery.hpp"
#include "ft/replication_manager.hpp"
#include "orb/exceptions.hpp"
#include "rep/oracle.hpp"

namespace eternal::ft {
namespace {

using app::Counter;
using sim::kMillisecond;
using sim::kSecond;
using sim::NodeId;

Properties actives(std::uint32_t n) {
  Properties p;
  p.replication_style = rep::Style::Active;
  p.initial_number_replicas = n;
  p.minimum_number_replicas = n > 1 ? n - 1 : 1;
  return p;
}

struct DurableCluster {
  DurableCluster(std::size_t n, sim::DiskFarm& farm, std::uint64_t seed = 1,
                 dur::DurParams dp = {})
      : sim(seed), net(sim, n), fabric(sim, net), domain(fabric),
        rm(domain, notifier), plane(domain, farm, dp) {
    rm.set_durability_plane(&plane);
  }

  void start() {
    fabric.start_all();
    plane.attach_all();
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

  std::int64_t counter_value(NodeId node, const std::string& group) {
    auto replica = domain.engine(node).local_replica(group);
    return replica ? static_cast<Counter&>(*replica).value() : -1;
  }

  /// Power-cut processors `nodes`: network + protocol halt, disk tail loss.
  void kill(const std::vector<NodeId>& nodes, bool torn) {
    for (NodeId n : nodes) {
      fabric.crash(n);
      plane.crash(n, torn);
    }
  }

  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  rep::Domain domain;
  FaultNotifier notifier;
  ReplicationManager rm;
  DurabilityPlane plane;
};

// Kill every replica of the domain mid-run, cold-restart from disk, and
// check the recovered state digests match the pre-crash state.
TEST(Recovery, WholeDomainColdRestartRestoresState) {
  sim::DiskFarm farm(3);
  DurableCluster c(3, farm, 7);
  c.start();
  c.rm.create_object<Counter>("counter", actives(3), {{0, 1, 2}});
  ASSERT_TRUE(c.converge());

  std::int64_t value = 0;
  for (int i = 0; i < 20; ++i) value = c.incr(0, "counter", 1);
  ASSERT_EQ(value, 20);
  const std::uint64_t version = c.domain.engine(0).state_version("counter");
  const std::uint64_t digest = rep::digest_state(
      *c.domain.engine(0).local_replica("counter"), version);

  c.plane.sync_all();  // pin the durability window shut for exact equality
  c.kill({0, 1, 2}, /*torn=*/false);
  c.sim.run_for(200 * kMillisecond);

  const dur::RecoveryStats stats = c.rm.recover_domain();
  EXPECT_GT(stats.records_replayed, 0u);
  ASSERT_TRUE(c.converge());

  for (NodeId n : {0, 1, 2}) {
    EXPECT_EQ(c.counter_value(n, "counter"), 20) << "node " << n;
    EXPECT_EQ(c.domain.engine(n).state_version("counter"), version);
    EXPECT_EQ(rep::digest_state(*c.domain.engine(n).local_replica("counter"),
                                version),
              digest);
    EXPECT_TRUE(c.domain.engine(n).is_synced("counter"));
  }
  ASSERT_FALSE(c.notifier.history().empty());
  EXPECT_EQ(c.notifier.history().back().type, "DOMAIN_RECOVERED");

  // The recovered domain keeps working.
  EXPECT_EQ(c.incr(1, "counter", 5), 25);
}

// True cold restart: the first Simulation/Fabric/Domain stack is torn down
// completely; the second life is rebuilt from the DiskFarm alone.
TEST(Recovery, ColdRestartAcrossSimLifetimes) {
  sim::DiskFarm farm(3);
  std::uint64_t version = 0;
  std::uint64_t digest = 0;
  {
    DurableCluster life1(3, farm, 11);
    life1.start();
    life1.rm.create_object<Counter>("counter", actives(3), {{0, 1, 2}});
    ASSERT_TRUE(life1.converge());
    for (int i = 0; i < 12; ++i) life1.incr(0, "counter", 2);
    version = life1.domain.engine(0).state_version("counter");
    digest = rep::digest_state(
        *life1.domain.engine(0).local_replica("counter"), version);
    life1.plane.sync_all();
  }  // the whole first life is gone; only the farm's durable bytes remain

  DurableCluster life2(3, farm, 12);
  // No create_object: the groups exist only on disk. The new life just
  // registers how to build replica shells.
  life2.rm.register_factory(
      "counter", [](NodeId) { return std::make_shared<Counter>(); });
  life2.rm.properties().set_properties("counter", actives(3));
  life2.plane.attach_all();
  const dur::RecoveryStats stats = life2.rm.recover_domain();
  EXPECT_GE(stats.records_scanned, stats.records_replayed);
  ASSERT_TRUE(life2.converge());

  for (NodeId n : {0, 1, 2}) {
    EXPECT_EQ(life2.counter_value(n, "counter"), 24) << "node " << n;
    EXPECT_EQ(life2.domain.engine(n).state_version("counter"), version);
    EXPECT_EQ(
        rep::digest_state(*life2.domain.engine(n).local_replica("counter"),
                          version),
        digest);
  }
  EXPECT_EQ(life2.incr(2, "counter", 1), 25);
}

// A client retry that straddles the restart must not re-execute: the
// journaled invocation rebuilds the reply log, so the retry is answered
// from it (duplicate_replies_resent) and the counter moves exactly once.
TEST(Recovery, RetryStraddlingRestartStaysExactlyOnce) {
  sim::DiskFarm farm(4);
  DurableCluster c(4, farm, 23);
  c.start();
  c.rm.create_object<Counter>("counter", actives(3), {{0, 1, 2}});
  ASSERT_TRUE(c.converge());

  // Fire one op from the surviving client node and stop the world the
  // moment a server has executed it — before the reply reaches the client.
  c.domain.client(3).set_retry_interval(100 * kMillisecond);
  cdr::Writer enc;
  enc.put_longlong(1);
  rep::Invocation inv =
      c.domain.client(3).invoke("counter", "incr", enc.written());
  while (c.domain.engine(0).stats().invocations_executed.value() == 0) {
    ASSERT_TRUE(c.sim.step()) << "ran dry before the op executed";
  }
  ASSERT_FALSE(inv.ready());

  c.plane.sync_all();  // the invocation's journal record becomes durable
  c.kill({0, 1, 2}, /*torn=*/false);  // client node 3 survives
  c.sim.run_for(200 * kMillisecond);

  for (NodeId n : {0, 1, 2}) c.rm.recover_node(n);
  ASSERT_TRUE(c.converge());
  // Drain: the client's retransmit timer re-sends into the recovered group.
  c.sim.run_for(2 * kSecond);

  ASSERT_TRUE(inv.ready());
  const cdr::Bytes out = inv.get(kSecond);
  cdr::Decoder dec(out);
  EXPECT_EQ(dec.get_longlong(), 1);
  // The RM may have auto-spawned a replacement on the surviving node while
  // the rest of the domain was down — every replica actually hosting the
  // group (recovered or spawned) must agree the op ran exactly once.
  std::size_t hosting = 0;
  for (NodeId n : {0, 1, 2, 3}) {
    if (!c.domain.engine(n).hosts("counter")) continue;
    ++hosting;
    EXPECT_EQ(c.counter_value(n, "counter"), 1) << "node " << n;
  }
  EXPECT_GE(hosting, 2u);
  std::uint64_t resent = 0;
  for (NodeId n : {0, 1, 2, 3}) {
    resent += c.domain.engine(n).stats().duplicate_replies_resent.value();
  }
  EXPECT_GE(resent, 1u);
}

// Torn power cut: every node loses its unsynced tail and keeps a garbage
// partial record. Recovery must come back to a consistent (if slightly
// older) common state and keep serving.
TEST(Recovery, TornTailRecoversToConsistentPrefix) {
  sim::DiskFarm farm(3);
  DurableCluster c(3, farm, 31);
  c.start();
  c.rm.create_object<Counter>("counter", actives(3), {{0, 1, 2}});
  ASSERT_TRUE(c.converge());
  std::int64_t value = 0;
  for (int i = 0; i < 10; ++i) value = c.incr(0, "counter", 1);
  ASSERT_EQ(value, 10);
  // No sync_all: whatever the group-commit timer last made durable wins.
  c.kill({0, 1, 2}, /*torn=*/true);
  c.sim.run_for(200 * kMillisecond);

  c.rm.recover_domain();
  ASSERT_TRUE(c.converge());

  // All replicas agree on one recovered prefix value in [0, 10].
  const std::int64_t recovered = c.counter_value(0, "counter");
  EXPECT_GE(recovered, 0);
  EXPECT_LE(recovered, 10);
  const std::uint64_t version = c.domain.engine(0).state_version("counter");
  for (NodeId n : {1, 2}) {
    EXPECT_EQ(c.domain.engine(n).state_version("counter"), version);
    EXPECT_EQ(c.counter_value(n, "counter"), recovered) << "node " << n;
  }
  EXPECT_EQ(c.incr(1, "counter", 1), recovered + 1);
}

// With a small checkpoint interval the journal stays short: recovery loads
// the checkpoint and replays only the suffix past it.
TEST(Recovery, CheckpointsBoundJournalReplay) {
  sim::DiskFarm farm(3);
  dur::DurParams dp;
  dp.checkpoint_interval = 8;
  DurableCluster c(3, farm, 41, dp);
  c.start();
  c.rm.create_object<Counter>("counter", actives(3), {{0, 1, 2}});
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 64; ++i) c.incr(0, "counter", 1);
  c.plane.sync_all();
  c.kill({0, 1, 2}, /*torn=*/false);
  c.sim.run_for(200 * kMillisecond);

  const dur::RecoveryStats stats = c.rm.recover_domain();
  EXPECT_GE(stats.checkpoints_loaded, 3u);  // one per node
  // 64 invocations × 3 replicas journaled; replay must cover far less.
  EXPECT_LT(stats.records_replayed, 64u);
  ASSERT_TRUE(c.converge());
  EXPECT_EQ(c.counter_value(0, "counter"), 64);
  EXPECT_EQ(c.incr(2, "counter", 1), 65);
}

// A quiet group that never reached its first checkpoint cut shares each
// node's journal with a busy group that cuts and compacts. The quiet
// group replays from scratch, so its acknowledged operations must
// survive the busy group's compactions.
TEST(Recovery, QuietGroupSurvivesBusyNeighbourCompaction) {
  sim::DiskFarm farm(3);
  dur::DurParams dp;
  dp.checkpoint_interval = 8;
  DurableCluster c(3, farm, 43, dp);
  c.start();
  c.rm.create_object<Counter>("quiet", actives(3), {{0, 1, 2}});
  c.rm.create_object<Counter>("busy", actives(3), {{0, 1, 2}});
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 3; ++i) c.incr(0, "quiet", 1);
  for (int i = 0; i < 40; ++i) c.incr(0, "busy", 1);
  c.plane.sync_all();
  c.kill({0, 1, 2}, /*torn=*/false);
  c.sim.run_for(200 * kMillisecond);

  c.rm.recover_domain();
  ASSERT_TRUE(c.converge());
  for (NodeId n : {0, 1, 2}) {
    EXPECT_EQ(c.counter_value(n, "quiet"), 3) << "node " << n;
    EXPECT_EQ(c.counter_value(n, "busy"), 40) << "node " << n;
  }
}

// Nested operations (teller -> two account groups) survive a whole-domain
// restart with money conserved.
TEST(Recovery, NestedOperationsRecoverConsistently) {
  sim::DiskFarm farm(3);
  DurableCluster c(3, farm, 53);
  c.start();
  c.rm.create_object<app::Teller>("teller", actives(2), {{0, 1}});
  c.rm.create_object<app::Account>("alice", actives(2), {{1, 2}});
  c.rm.create_object<app::Account>("bob", actives(2), {{0, 2}});
  ASSERT_TRUE(c.converge());

  {
    cdr::Writer enc;
    enc.put_longlong(1000);
    c.domain.client(0).invoke("alice", "deposit", enc.written()).get();
  }
  for (int i = 0; i < 4; ++i) {
    cdr::Writer enc;
    enc.put_string("alice");
    enc.put_string("bob");
    enc.put_longlong(50);
    c.domain.client(0).invoke("teller", "transfer", enc.written()).get();
  }
  c.plane.sync_all();
  c.kill({0, 1, 2}, /*torn=*/false);
  c.sim.run_for(200 * kMillisecond);

  c.rm.recover_domain();
  ASSERT_TRUE(c.converge());
  c.sim.run_for(kSecond);

  const auto& alice =
      static_cast<app::Account&>(*c.domain.engine(1).local_replica("alice"));
  const auto& bob =
      static_cast<app::Account&>(*c.domain.engine(0).local_replica("bob"));
  EXPECT_EQ(alice.balance(), 800);
  EXPECT_EQ(bob.balance(), 200);
  EXPECT_EQ(alice.balance() + bob.balance(), 1000);
}

// recover_node rebuilds one replica of an active Teller that kept serving
// transfers between two Accounts, while the minimum-replica rule spawns a
// replacement that joins by state transfer. The rebuilt replica's disk is
// behind the group, so it must resync before it serves or donates:
// afterwards every replica agrees, and the Teller counted exactly the
// transfers its clients saw acknowledged.
TEST(Recovery, RecoverNodeIntoLiveGroupResyncsBeforeServing) {
  sim::DiskFarm farm(5);
  dur::DurParams dp;
  dp.checkpoint_interval = 16;
  DurableCluster c(5, farm, /*seed=*/7, dp);
  c.start();
  Properties teller = actives(3);
  teller.minimum_number_replicas = 3;  // a crash spawns a replacement
  c.rm.create_object<app::Teller>("teller", teller, {{2, 3, 4}});
  c.rm.create_object<app::Account>("acct-a", actives(3), {{2, 3, 4}});
  c.rm.create_object<app::Account>("acct-b", actives(3), {{2, 3, 4}});
  ASSERT_TRUE(c.converge());
  for (const char* account : {"acct-a", "acct-b"}) {
    cdr::Writer enc;
    enc.put_longlong(1'000'000);
    c.domain.client(0).invoke(account, "deposit", enc.written()).get();
  }

  // Open-loop transfers from nodes 0 and 1, one every 2 ms.
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  bool running = true;
  int k = 0;
  std::function<void()> tick = [&] {
    if (!running) return;
    cdr::Writer enc;
    enc.put_string(k % 2 == 0 ? "acct-a" : "acct-b");
    enc.put_string(k % 2 == 0 ? "acct-b" : "acct-a");
    enc.put_longlong(1);
    try {
      c.domain.client(static_cast<NodeId>(k % 2))
          .invoke("teller", "transfer", enc.written())
          .then([&](orb::Future<cdr::Bytes>::State& st) {
            ++(st.error ? failed : acked);
          });
    } catch (const orb::SystemException&) {
      ++failed;
    }
    ++k;
    c.sim.after(2 * kMillisecond, tick);
  };
  tick();
  c.sim.run_for(300 * kMillisecond);
  c.kill({2}, /*torn=*/false);
  // The replacement is spawned 50 ms after the view change; the rebuilt
  // node returns while it is joining.
  c.sim.run_for(60 * kMillisecond);
  c.rm.recover_node(2);
  c.sim.run_for(1500 * kMillisecond);
  running = false;
  c.sim.run_for(3 * kSecond);

  EXPECT_EQ(failed, 0u);
  std::optional<std::pair<std::uint64_t, std::uint64_t>> reference;
  std::size_t replicas = 0;
  for (NodeId n = 0; n < 5; ++n) {
    rep::Engine& e = c.domain.engine(n);
    if (!c.fabric.is_up(n) || !e.hosts("teller")) continue;
    ASSERT_TRUE(e.is_synced("teller")) << "node " << n;
    ++replicas;
    const auto replica = e.local_replica("teller");
    const std::uint64_t version = e.state_version("teller");
    const std::pair state{version, rep::digest_state(*replica, version)};
    if (!reference) reference = state;
    EXPECT_EQ(state, *reference) << "node " << n;
    EXPECT_EQ(static_cast<app::Teller&>(*replica).transfers(), acked)
        << "node " << n;
  }
  EXPECT_GE(replicas, 3u);
}

// Open-loop transfers keep an active Teller's nested calls in flight while
// node 2 is rebuilt by recover_node and, later, the whole domain loses power
// with no sync: every node keeps a durable prefix of a different length,
// and the rebuilt node's disk holds the snapshot it resynced from. After
// recover_domain, a replica whose prefix is shorter than a sibling's cannot
// catch up by re-running its suspended transfers (the Accounts released the
// nested replies the longer-lived siblings acknowledged); it must resync
// from the longest lineage. Every replica then agrees, and each Teller
// counted exactly the transfers that moved money.
void power_cut_with_nested_in_flight(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  constexpr std::int64_t kOpening = 1'000'000;
  sim::DiskFarm farm(5);
  dur::DurParams dp;
  dp.checkpoint_interval = 16;
  std::uint64_t acked_before_cut = 0;
  {
    DurableCluster c(5, farm, seed, dp);
    c.start();
    c.rm.create_object<app::Teller>("teller", actives(3), {{2, 3, 4}});
    c.rm.create_object<app::Account>("acct-a", actives(3), {{2, 3, 4}});
    c.rm.create_object<app::Account>("acct-b", actives(3), {{2, 3, 4}});
    ASSERT_TRUE(c.converge());
    cdr::Writer dep;
    dep.put_longlong(kOpening);
    c.domain.client(0).invoke("acct-a", "deposit", dep.written()).get();

    bool running = true;
    sim::Time cut_at = 0;
    int k = 0;
    std::function<void()> tick = [&] {
      if (!running) return;
      cdr::Writer enc;
      enc.put_string("acct-a");
      enc.put_string("acct-b");
      enc.put_longlong(1);
      c.domain.client(static_cast<NodeId>(k++ % 2))
          .invoke("teller", "transfer", enc.written())
          .then([&](orb::Future<cdr::Bytes>::State& st) {
            const sim::Time interval = c.plane.params().sync_interval;
            if (!st.error && (cut_at == 0 || c.sim.now() + interval < cut_at)) {
              ++acked_before_cut;
            }
          });
      c.sim.after(kMillisecond, tick);
    };
    tick();
    c.sim.run_for(200 * kMillisecond);
    c.kill({2}, /*torn=*/false);
    ASSERT_TRUE(c.converge());
    c.rm.recover_node(2);
    c.sim.run_for(500 * kMillisecond);
    ASSERT_TRUE(c.domain.engine(2).is_synced("teller"));
    cut_at = c.sim.now() + 37 * kMillisecond;
    c.sim.run_for(37 * kMillisecond);
    running = false;
    c.kill({0, 1, 2, 3, 4}, /*torn=*/false);  // no sync: tails differ
  }

  DurableCluster c(5, farm, seed, dp);
  c.rm.register_factory("teller",
                        [](NodeId) { return std::make_shared<app::Teller>(); });
  c.rm.properties().set_properties("teller", actives(3));
  for (const char* account : {"acct-a", "acct-b"}) {
    c.rm.register_factory(
        account, [](NodeId) { return std::make_shared<app::Account>(); });
    c.rm.properties().set_properties(account, actives(3));
  }
  c.plane.attach_all();
  c.rm.recover_domain();
  ASSERT_TRUE(c.converge());
  c.sim.run_for(2 * kSecond);  // suspended transfers finish

  std::optional<std::uint64_t> transfers;
  for (const char* group : {"teller", "acct-a", "acct-b"}) {
    std::optional<std::pair<std::uint64_t, std::uint64_t>> reference;
    for (NodeId n : {2, 3, 4}) {
      rep::Engine& e = c.domain.engine(n);
      ASSERT_TRUE(e.is_synced(group)) << group << " node " << n;
      const auto replica = e.local_replica(group);
      const std::uint64_t version = e.state_version(group);
      const std::pair state{version, rep::digest_state(*replica, version)};
      if (!reference) reference = state;
      EXPECT_EQ(state, *reference) << group << " node " << n;
      if (std::string_view(group) == "teller") {
        transfers = static_cast<app::Teller&>(*replica).transfers();
      }
    }
  }
  ASSERT_TRUE(transfers.has_value());
  const auto& b =
      static_cast<app::Account&>(*c.domain.engine(3).local_replica("acct-b"));
  const auto& a =
      static_cast<app::Account&>(*c.domain.engine(3).local_replica("acct-a"));
  EXPECT_EQ(static_cast<std::uint64_t>(b.balance()), *transfers)
      << "the Teller counted exactly the transfers that moved money";
  EXPECT_EQ(a.balance() + b.balance(), kOpening);
  EXPECT_GE(*transfers, acked_before_cut);
}

TEST(Recovery, PowerCutWithNestedInFlightReconcilesByLineage) {
  for (std::uint64_t seed : {1, 2, 3}) power_cut_with_nested_in_flight(seed);
}

#ifdef RECOVERCTL_DUMP_DIR
// Writes a post-crash DiskFarm dump (torn tail included) for the
// `recoverctl` ctest fixture: the CLI must inspect and verify the same
// artifact CI would upload after a failed recovery soak.
TEST(Recovery, FarmDumpForRecoverctl) {
  sim::DiskFarm farm(3);
  dur::DurParams dp;
  dp.checkpoint_interval = 8;
  DurableCluster c(3, farm, 61, dp);
  c.start();
  c.rm.create_object<Counter>("counter", actives(3), {{0, 1, 2}});
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 20; ++i) c.incr(0, "counter", 1);
  // No sync_all: the torn power cut leaves a mid-record tail on disk —
  // recoverctl must report it as survivable damage, not a violation.
  c.kill({0, 1, 2}, /*torn=*/true);
  ASSERT_TRUE(farm.save_to(RECOVERCTL_DUMP_DIR));
  // The dump really recovers: load it into a fresh farm and cold-restart.
  sim::DiskFarm restored(3);
  ASSERT_TRUE(restored.load_from(RECOVERCTL_DUMP_DIR));
  DurableCluster life2(3, restored, 62, dp);
  life2.rm.register_factory(
      "counter", [](NodeId) { return std::make_shared<Counter>(); });
  life2.rm.properties().set_properties("counter", actives(3));
  life2.plane.attach_all();
  life2.rm.recover_domain();
  ASSERT_TRUE(life2.converge());
  EXPECT_GE(life2.counter_value(0, "counter"), 0);
}
#endif

}  // namespace
}  // namespace eternal::ft
