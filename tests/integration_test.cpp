// Full-stack integration tests: management plane + replication engine +
// group communication + simulated LAN, under combined fault loads.
#include <gtest/gtest.h>

#include <deque>
#include <functional>

#include "app/servants.hpp"
#include "ft/fault_detector.hpp"
#include "ft/replication_manager.hpp"
#include "orb/exceptions.hpp"

namespace eternal {
namespace {

using app::Counter;
using app::Inventory;
using app::KvStore;
using sim::kMillisecond;
using sim::kSecond;
using sim::NodeId;

struct Stack {
  explicit Stack(std::size_t n, std::uint64_t seed = 1,
                 rep::EngineParams ep = {})
      : sim(seed), net(sim, n), fabric(sim, net), domain(fabric, ep),
        rm(domain, notifier) {
    fabric.start_all();
  }

  bool converge(sim::Time timeout = 5 * kSecond) {
    const bool ok = fabric.run_until_converged(timeout);
    sim.run_for(300 * kMillisecond);
    return ok;
  }

  void make_counter_group(const std::string& name, rep::Style style,
                          std::vector<NodeId> nodes, std::uint32_t min) {
    rm.register_factory(
        name, [](NodeId) { return std::make_shared<Counter>(); });
    ft::Properties p;
    p.replication_style = style;
    p.initial_number_replicas = static_cast<std::uint32_t>(nodes.size());
    p.minimum_number_replicas = min;
    rm.properties().set_properties(name, p);
    rm.create_object(name, nodes);
    sim.run_for(kSecond);
  }

  std::int64_t incr(NodeId node, const std::string& group,
                    sim::Time timeout = 10 * kSecond) {
    cdr::Writer enc;
    enc.put_longlong(1);
    cdr::Bytes out =
        domain.client(node).invoke(group, "incr", enc.written()).get(timeout);
    cdr::Decoder dec(out);
    return dec.get_longlong();
  }

  std::int64_t value_at(NodeId node, const std::string& group) {
    auto r = std::dynamic_pointer_cast<Counter>(
        domain.engine(node).local_replica(group));
    return r ? r->value() : -1;
  }

  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  rep::Domain domain;
  ft::FaultNotifier notifier;
  ft::ReplicationManager rm;
};

TEST(Integration, ServiceSurvivesLossyNetworkWithCrashAndRespawn) {
  Stack s(5, /*seed=*/21);
  ASSERT_TRUE(s.converge());
  sim::NetParams lossy;
  lossy.loss_probability = 0.01;
  s.net.set_params(lossy);
  s.make_counter_group("ctr", rep::Style::Active, {0, 1, 2}, 3);

  std::int64_t expect = 0;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.incr(4, "ctr"), ++expect);
  s.fabric.crash(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.incr(4, "ctr"), ++expect);
  s.sim.run_for(5 * kSecond);  // RM respawns a replacement
  EXPECT_EQ(s.rm.locations_of("ctr").size(), 3u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(s.incr(4, "ctr"), ++expect);
  s.sim.run_for(2 * kSecond);
  for (NodeId n : s.rm.locations_of("ctr")) {
    EXPECT_EQ(s.value_at(n, "ctr"), expect) << "node " << n;
  }
}

TEST(Integration, DonorCrashDuringStateTransferIsRetried) {
  Stack s(5, /*seed=*/9);
  ASSERT_TRUE(s.converge());
  s.make_counter_group("ctr", rep::Style::Active, {0, 1}, 2);
  for (int i = 0; i < 20; ++i) s.incr(4, "ctr");

  // Use a tiny chunk size so the transfer spans many messages, then kill
  // the donor (node 0, lowest synced) as soon as the join starts.
  s.domain.engine(2).host(rep::GroupConfig{"ctr", rep::Style::Active},
                          std::make_shared<Counter>(), /*initial=*/false);
  s.sim.run_for(2 * kMillisecond);
  s.fabric.crash(0);
  s.sim.run_for(10 * kSecond);
  ASSERT_TRUE(s.domain.engine(2).is_synced("ctr"));
  EXPECT_EQ(s.value_at(2, "ctr"), 20);
}

TEST(Integration, CrashDuringPartitionThenRemerge) {
  Stack s(6, /*seed=*/33);
  ASSERT_TRUE(s.converge());
  s.make_counter_group("ctr", rep::Style::Active, {0, 1, 4}, 2);

  std::int64_t ops = 0;
  s.incr(2, "ctr");
  ++ops;
  s.net.set_partitions({{0, 1, 2, 3}, {4, 5}});
  ASSERT_TRUE(s.converge());
  s.incr(2, "ctr");  // primary side
  ++ops;
  s.incr(5, "ctr");  // secondary side (fulfillment)
  ++ops;
  s.fabric.crash(1);  // crash inside the primary component
  ASSERT_TRUE(s.converge());
  s.incr(2, "ctr");
  ++ops;
  s.net.heal_partitions();
  ASSERT_TRUE(s.converge());
  s.sim.run_for(5 * kSecond);

  EXPECT_EQ(s.value_at(0, "ctr"), ops);
  EXPECT_EQ(s.value_at(4, "ctr"), ops);
}

TEST(Integration, MinorityClientBlocksUntilRemerge) {
  Stack s(4, /*seed=*/2);
  ASSERT_TRUE(s.converge());
  s.make_counter_group("ctr", rep::Style::Active, {0, 1}, 2);

  // Node 3 is partitioned away from every replica: its invocation cannot
  // complete until the network heals — then the retry machinery delivers
  // it exactly once.
  s.net.set_partitions({{0, 1, 2}, {3}});
  ASSERT_TRUE(s.converge());
  s.domain.client(3).set_retry_interval(50 * kMillisecond);
  cdr::Writer enc;
  enc.put_longlong(1);
  auto fut = s.domain.client(3).invoke("ctr", "incr", enc.written());
  s.sim.run_for(2 * kSecond);
  EXPECT_FALSE(fut.ready());
  s.net.heal_partitions();
  ASSERT_TRUE(s.converge());
  s.sim.run_for(3 * kSecond);
  EXPECT_TRUE(fut.ready());
  s.sim.run_for(kSecond);
  EXPECT_EQ(s.value_at(0, "ctr"), 1);
  EXPECT_EQ(s.value_at(1, "ctr"), 1);
}

TEST(Integration, CascadingFailuresDownToOneReplicaAndBack) {
  Stack s(5, /*seed=*/44);
  ASSERT_TRUE(s.converge());
  // min=1 so the RM does not interfere; we restart nodes manually.
  s.make_counter_group("ctr", rep::Style::Active, {0, 1, 2}, 1);

  std::int64_t expect = 0;
  EXPECT_EQ(s.incr(3, "ctr"), ++expect);
  s.fabric.crash(0);
  ASSERT_TRUE(s.converge());
  EXPECT_EQ(s.incr(3, "ctr"), ++expect);
  s.fabric.crash(1);
  ASSERT_TRUE(s.converge());
  EXPECT_EQ(s.incr(3, "ctr"), ++expect);  // single surviving replica

  // Restart a crashed processor; its replica state was lost, so hosting
  // anew acquires the current state by transfer.
  s.domain.restart(0);
  ASSERT_TRUE(s.converge());
  s.domain.engine(0).host(rep::GroupConfig{"ctr", rep::Style::Active},
                          std::make_shared<Counter>(), /*initial=*/false);
  s.sim.run_for(5 * kSecond);
  ASSERT_TRUE(s.domain.engine(0).is_synced("ctr"));
  EXPECT_EQ(s.value_at(0, "ctr"), expect);
  EXPECT_EQ(s.incr(3, "ctr"), ++expect);
}

TEST(Integration, MixedStyleGroupsShareProcessorsUnderFaults) {
  Stack s(6, /*seed=*/5);
  ASSERT_TRUE(s.converge());
  s.domain.host_on<app::Teller>(
      rep::GroupConfig{"teller", rep::Style::WarmPassive}, {0, 1, 2});
  s.domain.host_on<app::Account>(
      rep::GroupConfig{"a", rep::Style::Active}, {1, 2, 3});
  s.domain.host_on<app::Account>(
      rep::GroupConfig{"b", rep::Style::ColdPassive}, {2, 3, 4});
  s.sim.run_for(kSecond);

  cdr::Writer dep;
  dep.put_longlong(100);
  s.domain.client(5).invoke("a", "deposit", dep.written()).get();

  auto transfer = [&] {
    cdr::Writer args;
    args.put_string("a");
    args.put_string("b");
    args.put_longlong(10);
    s.domain.client(5)
        .invoke("teller", "transfer", args.written())
        .get(10 * kSecond);
  };
  transfer();
  // Node 2 hosts a replica of *all three* groups; crash it mid-service.
  s.fabric.crash(2);
  ASSERT_TRUE(s.converge());
  transfer();
  s.sim.run_for(2 * kSecond);

  cdr::Bytes bal = s.domain.client(5).invoke("b", "balance", {}).get();
  cdr::Decoder dec(bal);
  EXPECT_EQ(dec.get_longlong(), 20);
}

TEST(Integration, DeliberateRemovalIsMaskedLikeAFault) {
  Stack s(4, /*seed=*/8);
  ASSERT_TRUE(s.converge());
  s.make_counter_group("ctr", rep::Style::WarmPassive, {0, 1, 2}, 2);
  std::int64_t expect = 0;
  EXPECT_EQ(s.incr(3, "ctr"), ++expect);
  // Remove the *primary* deliberately (live-upgrade building block).
  s.rm.remove_member("ctr", 0);
  s.sim.run_for(kSecond);
  EXPECT_EQ(s.incr(3, "ctr"), ++expect);
  // Let the backup's state update land: the blocking call returns the
  // moment the *client* has its reply, which can precede the backup's
  // delivery of the (batched) update by a few simulated microseconds.
  s.sim.run_for(100 * kMillisecond);
  EXPECT_EQ(s.value_at(1, "ctr"), expect);
  EXPECT_EQ(s.value_at(2, "ctr"), expect);
}

TEST(Integration, InventoryWithManagementPlaneAndPartition) {
  Stack s(5, /*seed=*/15);
  ASSERT_TRUE(s.converge());
  s.rm.register_factory(
      "inv", [](NodeId) { return std::make_shared<Inventory>(); });
  ft::Properties p;
  p.initial_number_replicas = 3;
  p.minimum_number_replicas = 2;
  s.rm.properties().set_properties("inv", p);
  s.rm.create_object("inv", std::vector<NodeId>{0, 1, 2});
  s.sim.run_for(kSecond);

  cdr::Writer make;
  make.put_longlong(1);
  s.domain.client(0).invoke("inv", "manufacture", make.written()).get();

  s.net.set_partitions({{0, 1, 3, 4}, {2}});
  ASSERT_TRUE(s.converge());
  s.domain.client(1).invoke("inv", "sell", {}).get();
  s.domain.client(2).invoke("inv", "sell", {}).get();
  s.net.heal_partitions();
  ASSERT_TRUE(s.converge());
  s.sim.run_for(5 * kSecond);

  for (NodeId n : {0u, 1u, 2u}) {
    auto inv = std::dynamic_pointer_cast<Inventory>(
        s.domain.engine(n).local_replica("inv"));
    ASSERT_NE(inv, nullptr);
    EXPECT_EQ(inv->shipped(), 1) << "node " << n;
    EXPECT_EQ(inv->back_orders(), 1) << "node " << n;
    EXPECT_EQ(inv->rush_orders(), 1) << "node " << n;
  }
}

TEST(Integration, DetectorAndMembershipAgreeOnFault) {
  Stack s(4, /*seed=*/6);
  ASSERT_TRUE(s.converge());
  ft::FaultDetector watcher(s.sim, s.fabric.group(0), s.notifier);
  ft::FaultDetector responder(s.sim, s.fabric.group(3), s.notifier);
  responder.start();
  watcher.monitor(3, 40 * kMillisecond, 15 * kMillisecond);
  s.make_counter_group("ctr", rep::Style::Active, {0, 1, 3}, 2);

  s.fabric.crash(3);
  s.sim.run_for(2 * kSecond);
  EXPECT_TRUE(watcher.suspects(3));
  // Membership already removed it from the group view too.
  EXPECT_EQ(s.domain.engine(0).group_members("ctr"),
            (std::vector<NodeId>{0, 1}));
}

TEST(Integration, ReplyLogEvictionKeepsRecentRetriesExact) {
  // Each reply leaves the log as soon as the client's next invocation
  // acknowledges it, so the log holds about one entry while retries race
  // every reply: late copies fall below the floor and are dropped.
  Stack s(4, /*seed=*/10);
  ASSERT_TRUE(s.converge());
  s.make_counter_group("ctr", rep::Style::Active, {0, 1}, 2);
  s.domain.client(3).set_retry_interval(400);  // aggressive duplicates
  std::int64_t expect = 0;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(s.incr(3, "ctr"), ++expect);
  }
  s.sim.run_for(kSecond);
  EXPECT_EQ(s.value_at(0, "ctr"), 50);
  EXPECT_EQ(s.value_at(1, "ctr"), 50);
  EXPECT_LT(s.domain.engine(0).checkpoint_sizes("ctr").orb, 200u);
}

cdr::Bytes i64(std::int64_t v) {
  cdr::Writer w;
  w.put_longlong(v);
  return cdr::Bytes(w.written().begin(), w.written().end());
}

std::int64_t as_i64(const cdr::Bytes& b) {
  cdr::Decoder dec(b);
  return dec.get_longlong();
}

/// Wait for a reply the test registered with Engine::expect_reply.
cdr::Bytes await(Stack& s, orb::Future<cdr::Bytes> f,
                 sim::Time timeout = 5 * kSecond) {
  const sim::Time deadline = s.sim.now() + timeout;
  while (!f.ready() && s.sim.now() < deadline) s.sim.step();
  EXPECT_TRUE(f.ready());
  return f.take();
}

// A client that never received the reply to X keeps retransmitting it, so
// its watermark stays at X while it runs 70,000 later operations — far
// past the 65,536-entry FIFO this retention replaced. The retry gets the
// logged reply; once X has expired it gets a refusal instead. X never runs
// a second time.
TEST(Integration, RetryAfterSeventyThousandLaterOpsIsAnsweredExactlyOnce) {
  Stack s(3, /*seed=*/31);
  ASSERT_TRUE(s.converge());
  s.make_counter_group("ctr", rep::Style::Active, {0, 1}, 2);
  rep::Client& client = s.domain.client(2);
  rep::Engine& engine = s.domain.engine(2);
  const cdr::Bytes one = i64(1);

  // X executes, but its reply never reaches the client.
  const rep::Invocation x = client.invoke("ctr", "incr", one);
  engine.cancel_reply(client.reply_group(), x.id());
  s.sim.run_for(50 * kMillisecond);
  ASSERT_EQ(s.value_at(0, "ctr"), 1);

  std::deque<rep::Invocation> window;
  for (int i = 0; i < 70'000; ++i) {
    if (window.size() == 32) {
      window.front().get();
      window.pop_front();
    }
    window.push_back(client.invoke("ctr", "incr", one));
  }
  for (rep::Invocation& inv : window) inv.get();

  // The next retransmission of X is answered from the log.
  EXPECT_EQ(as_i64(await(s, engine.expect_reply(client.reply_group(),
                                                x.id()))),
            1);
  EXPECT_EQ(s.value_at(0, "ctr"), 70'001);

  // Past X's expiration (the group's ordered clock moves with any later
  // request), its reply is gone and the retry is refused.
  s.sim.run_for(rep::kRequestRetention);
  EXPECT_EQ(s.incr(2, "ctr"), 70'002);
  auto refusal = engine.expect_reply(client.reply_group(), x.id());
  EXPECT_THROW(await(s, refusal), orb::SystemException);
  EXPECT_GT(s.domain.engine(0).stats().expired_refused.value(), 0u);
  s.sim.run_for(kSecond);
  EXPECT_EQ(s.value_at(0, "ctr"), 70'002);
  EXPECT_EQ(s.value_at(1, "ctr"), 70'002);
}

// A copy of an acknowledged operation that arrives late (after the
// client's next invocation raised its floor) is dropped without a reply.
TEST(Integration, LateDuplicateBelowTheFloorIsDropped) {
  Stack s(3, /*seed=*/32);
  ASSERT_TRUE(s.converge());
  s.make_counter_group("ctr", rep::Style::Active, {0, 1}, 2);
  rep::Client& client = s.domain.client(2);
  rep::Invocation x = client.invoke("ctr", "incr", i64(1));
  const rep::OperationId x_id = x.id();
  EXPECT_EQ(as_i64(x.get()), 1);
  EXPECT_EQ(s.incr(2, "ctr"), 2);  // acknowledges X

  giop::RequestHeader hdr;
  hdr.request_id = 1;
  hdr.object_key = cdr::WireBuf(cdr::Bytes{'c', 't', 'r'});
  hdr.operation = "incr";
  cdr::Writer request;
  giop::encode_request_into(request, hdr, i64(1));
  rep::Envelope late;
  late.kind = rep::Kind::Invocation;
  late.op_id = x_id;
  late.target_group = "ctr";
  late.reply_group = client.reply_group();
  late.timestamp = s.sim.now();
  late.ack = x_id;  // a retransmission carries its original watermark
  late.expires = s.sim.now() + rep::kRequestRetention;
  late.giop = request.seal();
  const std::uint64_t dropped0 =
      s.domain.engine(0).stats().duplicate_invocations_dropped.value();
  const std::uint64_t resent0 =
      s.domain.engine(0).stats().duplicate_replies_resent.value();
  s.domain.engine(2).send_invocation(late, 0);
  s.sim.run_for(kSecond);

  EXPECT_EQ(s.domain.engine(0).stats().duplicate_invocations_dropped.value(),
            dropped0 + 1);
  EXPECT_EQ(s.domain.engine(0).stats().duplicate_replies_resent.value(),
            resent0);
  EXPECT_EQ(s.value_at(0, "ctr"), 2);
  EXPECT_EQ(s.value_at(1, "ctr"), 2);
}

// A client that vanishes never acknowledges its last replies; they go once
// the group's ordered clock passes their expiration.
TEST(Integration, VanishedClientRepliesGoAtExpiration) {
  Stack s(4, /*seed=*/33);
  ASSERT_TRUE(s.converge());
  s.make_counter_group("ctr", rep::Style::Active, {0, 1}, 2);
  // One operation outstanding on a group nobody hosts pins the watermark,
  // so the client's 20 answered operations stay retained.
  rep::Client& vanishing = s.domain.client(2);
  const rep::Invocation pinned = vanishing.invoke("nobody", "incr", i64(1));
  for (int i = 0; i < 20; ++i) s.incr(2, "ctr");
  const std::size_t retained = s.domain.engine(0).checkpoint_sizes("ctr").orb;
  EXPECT_GT(retained, 20u * 36u) << "20 GIOP replies of 36 bytes";

  s.fabric.crash(2);
  ASSERT_TRUE(s.converge());
  s.sim.run_for(rep::kRequestRetention);
  EXPECT_EQ(s.incr(3, "ctr"), 21);  // moves the ordered clock past them
  const std::size_t after = s.domain.engine(0).checkpoint_sizes("ctr").orb;
  EXPECT_LT(after, 200u) << "two floors and client.3's one reply";
  EXPECT_EQ(s.domain.engine(1).checkpoint_sizes("ctr").orb, after);
  EXPECT_FALSE(pinned.ready());
}

// Nested Teller->Account transfers in flight across a warm-passive Teller
// failover: the new primary re-runs the logged transfers under their
// original identifiers, so the Accounts answer the nested retries from
// their logs (the old primary never acknowledged a running parent) and
// every transfer moves money exactly once.
TEST(Integration, NestedRetriesAcrossTellerFailoverStayExact) {
  Stack s(6, /*seed=*/34);
  ASSERT_TRUE(s.converge());
  s.domain.host_on<app::Teller>(
      rep::GroupConfig{"teller", rep::Style::WarmPassive}, {0, 1, 2});
  s.domain.host_on<app::Account>(rep::GroupConfig{"a", rep::Style::Active},
                                 {3, 4});
  s.domain.host_on<app::Account>(rep::GroupConfig{"b", rep::Style::Active},
                                 {3, 4});
  s.sim.run_for(kSecond);
  s.domain.client(5).invoke("a", "deposit", i64(1000)).get();

  cdr::Writer args;
  args.put_string("a");
  args.put_string("b");
  args.put_longlong(1);
  constexpr int kTransfers = 40;
  std::vector<rep::Invocation> transfers;
  for (int i = 0; i < kTransfers; ++i) {
    transfers.push_back(
        s.domain.client(5).invoke("teller", "transfer", args.written()));
  }
  s.sim.run_for(5 * kMillisecond);  // the primary is mid-transfer
  s.fabric.crash(0);
  for (rep::Invocation& t : transfers) t.get(20 * kSecond);
  s.sim.run_for(kSecond);
  EXPECT_GT(s.domain.engine(1).stats().failovers.value(), 0u);
  // The new primary's nested retries were answered from the Account logs.
  EXPECT_GT(s.domain.engine(3).stats().duplicate_replies_resent.value(), 0u);

  const auto balance = [&](const char* account) {
    return as_i64(s.domain.client(5).invoke(account, "balance", {}).get());
  };
  EXPECT_EQ(balance("a"), 1000 - kTransfers);
  EXPECT_EQ(balance("b"), kTransfers);
  for (NodeId n : {1u, 2u}) {
    const auto teller = std::dynamic_pointer_cast<app::Teller>(
        s.domain.engine(n).local_replica("teller"));
    ASSERT_NE(teller, nullptr);
    EXPECT_EQ(teller->transfers(), static_cast<std::uint64_t>(kTransfers))
        << "node " << n;
  }
}

// A warm-passive transfer that fails (its nested withdraw raises NO_FUNDS)
// mutates nothing, but the backups must still learn it finished: the
// primary's next transfer acknowledges the failed one's nested operations,
// so the Account drops them as below the floor. A promoted primary that
// re-ran the failed transfer would wait for a reply that never comes.
TEST(Integration, FailedPassiveTransferIsNotRerunAfterFailover) {
  Stack s(6, /*seed=*/35);
  ASSERT_TRUE(s.converge());
  s.domain.host_on<app::Teller>(
      rep::GroupConfig{"teller", rep::Style::WarmPassive}, {0, 1, 2});
  s.domain.host_on<app::Account>(rep::GroupConfig{"a", rep::Style::Active},
                                 {3, 4});
  s.domain.host_on<app::Account>(rep::GroupConfig{"b", rep::Style::Active},
                                 {3, 4});
  s.sim.run_for(kSecond);
  rep::Client& client = s.domain.client(5);
  client.invoke("b", "deposit", i64(1000)).get();

  const auto transfer = [&](const char* from, const char* to) {
    cdr::Writer args;
    args.put_string(from);
    args.put_string(to);
    args.put_longlong(1);
    return client.invoke("teller", "transfer", args.written());
  };
  EXPECT_THROW(transfer("a", "b").get(), orb::SystemException);  // NO_FUNDS
  transfer("b", "a").get();
  s.sim.run_for(10 * kMillisecond);
  EXPECT_EQ(s.domain.engine(1).checkpoint_sizes("teller").infrastructure,
            s.domain.engine(0).checkpoint_sizes("teller").infrastructure)
      << "the backups retired the failed transfer too";

  s.fabric.crash(0);
  ASSERT_TRUE(s.converge());
  for (int i = 0; i < 3; ++i) transfer("b", "a").get(5 * kSecond);
  for (NodeId n : {1u, 2u}) {
    const auto teller = std::dynamic_pointer_cast<app::Teller>(
        s.domain.engine(n).local_replica("teller"));
    ASSERT_NE(teller, nullptr);
    EXPECT_EQ(teller->transfers(), 4u) << "node " << n;
  }
  EXPECT_EQ(as_i64(client.invoke("a", "balance", {}).get()), 4);
}

// A replica joins an active Teller whose executions always overlap: open
// loop transfers arrive every 250 us, faster than one transfer's two nested
// round trips, so some transfer is always suspended on a nested call. The
// donor waits only for the executions running at the joiner's marker; the
// ones started later ride in the snapshot and the joiner re-runs them
// against the nested replies it buffered.
TEST(Integration, JoinerSyncsWhileNestedExecutionsOverlap) {
  Stack s(6, /*seed=*/36);
  ASSERT_TRUE(s.converge());
  s.domain.host_on<app::Teller>(rep::GroupConfig{"teller", rep::Style::Active},
                                {0, 1});
  s.domain.host_on<app::Account>(rep::GroupConfig{"a", rep::Style::Active},
                                 {2, 3});
  s.domain.host_on<app::Account>(rep::GroupConfig{"b", rep::Style::Active},
                                 {2, 3});
  s.sim.run_for(kSecond);
  rep::Client& client = s.domain.client(5);
  client.invoke("a", "deposit", i64(1'000'000)).get();

  cdr::Writer args;
  args.put_string("a");
  args.put_string("b");
  args.put_longlong(1);
  std::vector<rep::Invocation> sent;
  bool arriving = true;
  std::function<void()> arrive = [&] {
    if (!arriving) return;
    sent.push_back(client.invoke("teller", "transfer", args.written()));
    s.sim.after(250 * sim::kMicrosecond, arrive);
  };
  arrive();
  s.sim.run_for(200 * kMillisecond);
  s.domain.engine(4).host(rep::GroupConfig{"teller", rep::Style::Active},
                          std::make_shared<app::Teller>(), /*initial=*/false);
  for (int i = 0; i < 50 && !s.domain.engine(4).is_synced("teller"); ++i) {
    s.sim.run_for(20 * kMillisecond);
  }
  EXPECT_TRUE(s.domain.engine(4).is_synced("teller"))
      << "joiner still unsynced after " << sent.size() << " transfers";
  s.sim.run_for(200 * kMillisecond);  // the joiner executes live traffic too
  arriving = false;
  s.sim.run_for(2 * kSecond);

  for (const rep::Invocation& t : sent) ASSERT_TRUE(t.ready());
  const std::uint64_t acked = sent.size();
  for (NodeId n : {0u, 1u, 4u}) {
    const auto teller = std::dynamic_pointer_cast<app::Teller>(
        s.domain.engine(n).local_replica("teller"));
    ASSERT_NE(teller, nullptr);
    EXPECT_EQ(teller->transfers(), acked) << "node " << n;
  }
  EXPECT_EQ(as_i64(client.invoke("b", "balance", {}).get()),
            static_cast<std::int64_t>(acked));
}

TEST(Integration, ThreeWayFragmentationSelfPromotesAndConverges) {
  Stack s(3, /*seed=*/12);
  ASSERT_TRUE(s.converge());
  s.make_counter_group("ctr", rep::Style::Active, {0, 1, 2}, 1);
  std::int64_t ops = 0;
  s.incr(0, "ctr");
  ++ops;

  // Total fragmentation: no component has a majority, so none is primary.
  s.net.set_partitions({{0}, {1}, {2}});
  ASSERT_TRUE(s.converge());
  s.incr(0, "ctr");
  ++ops;
  s.incr(1, "ctr");
  ++ops;
  s.incr(2, "ctr");
  ++ops;

  s.net.heal_partitions();
  ASSERT_TRUE(s.converge());
  s.sim.run_for(10 * kSecond);
  // The lowest member's component self-promoted; the others resynced and
  // replayed their fulfillment queues: all operations survive.
  for (NodeId n : {0u, 1u, 2u}) {
    EXPECT_EQ(s.value_at(n, "ctr"), ops) << "node " << n;
  }
}

}  // namespace
}  // namespace eternal
