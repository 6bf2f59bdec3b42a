#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "app/servants.hpp"
#include "rep/domain.hpp"

namespace eternal::rep {
namespace {

using app::Account;
using app::Counter;
using app::Echo;
using app::Inventory;
using app::KvStore;
using app::NondetProbe;
using app::Teller;
using sim::kMillisecond;
using sim::kSecond;
using sim::NodeId;

struct Cluster {
  explicit Cluster(std::size_t n, std::uint64_t seed = 1,
                   EngineParams ep = {}, totem::Params tp = {})
      : sim(seed), net(sim, n), fabric(sim, net, tp), domain(fabric, ep) {
    fabric.start_all();
  }

  bool converge(sim::Time timeout = 2 * kSecond) {
    const bool ok = fabric.run_until_converged(timeout);
    // Let announcements and synced marks flush so primaries settle.
    sim.run_for(300 * kMillisecond);
    return ok;
  }

  void run(sim::Time t) { sim.run_for(t); }

  template <typename T>
  std::shared_ptr<T> replica(NodeId node, const std::string& group) {
    return std::dynamic_pointer_cast<T>(
        domain.engine(node).local_replica(group));
  }

  std::int64_t invoke_i64(NodeId node, const std::string& group,
                          const std::string& op, std::int64_t arg,
                          sim::Time timeout = 5 * kSecond) {
    cdr::Writer enc;
    enc.put_longlong(arg);
    cdr::Bytes out =
        domain.client(node).invoke(group, op, enc.written()).get(timeout);
    cdr::Decoder dec(out);
    return dec.get_longlong();
  }

  std::string invoke_str(NodeId node, const std::string& group,
                         const std::string& op,
                         sim::Time timeout = 5 * kSecond) {
    cdr::Bytes out =
        domain.client(node).invoke(group, op, {}).get(timeout);
    cdr::Decoder dec(out);
    return dec.get_string();
  }

  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  Domain domain;
};

GroupConfig cfg(const std::string& name, Style style) {
  return GroupConfig{name, style};
}

// ---------------------------------------------------------------------------
// Active replication
// ---------------------------------------------------------------------------

TEST(Active, BasicInvokeAndConsistency) {
  Cluster c(4);
  c.domain.host_on<Counter>(cfg("ctr", Style::Active), {0, 1, 2});
  ASSERT_TRUE(c.converge());

  EXPECT_EQ(c.invoke_i64(3, "ctr", "incr", 5), 5);
  EXPECT_EQ(c.invoke_i64(3, "ctr", "incr", 7), 12);

  c.run(kSecond);
  for (NodeId n : {0u, 1u, 2u}) {
    EXPECT_EQ(c.replica<Counter>(n, "ctr")->value(), 12) << "node " << n;
  }
}

TEST(Active, EveryReplicaExecutesEveryOperation) {
  Cluster c(4);
  c.domain.host_on<Counter>(cfg("ctr", Style::Active), {0, 1, 2});
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 10; ++i) c.invoke_i64(3, "ctr", "incr", 1);
  c.run(kSecond);
  for (NodeId n : {0u, 1u, 2u}) {
    EXPECT_EQ(c.domain.engine(n).stats().invocations_executed.value(), 10u);
  }
}

TEST(Active, ExactlyOnceUnderClientRetries) {
  Cluster c(4);
  c.domain.host_on<Counter>(cfg("ctr", Style::Active), {0, 1, 2});
  ASSERT_TRUE(c.converge());
  // Aggressive retransmission: several duplicate invocations per call.
  c.domain.client(3).set_retry_interval(300);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(c.invoke_i64(3, "ctr", "incr", 1), i + 1);
  }
  c.run(kSecond);
  for (NodeId n : {0u, 1u, 2u}) {
    EXPECT_EQ(c.replica<Counter>(n, "ctr")->value(), 5);
    EXPECT_EQ(c.domain.engine(n).stats().invocations_executed.value(), 5u);
  }
}

TEST(Active, ReadOnlyOpsDoNotBumpStateVersion) {
  Cluster c(3);
  c.domain.host_on<Counter>(cfg("ctr", Style::Active), {0, 1});
  ASSERT_TRUE(c.converge());
  c.invoke_i64(2, "ctr", "incr", 1);
  const auto v = c.domain.engine(0).state_version("ctr");
  c.invoke_i64(2, "ctr", "get", 0);
  EXPECT_EQ(c.domain.engine(0).state_version("ctr"), v);
}

TEST(Active, SurvivesReplicaCrash) {
  Cluster c(4);
  c.domain.host_on<Counter>(cfg("ctr", Style::Active), {0, 1, 2});
  ASSERT_TRUE(c.converge());
  EXPECT_EQ(c.invoke_i64(3, "ctr", "incr", 1), 1);
  c.fabric.crash(1);
  ASSERT_TRUE(c.converge());
  EXPECT_EQ(c.invoke_i64(3, "ctr", "incr", 1), 2);
  c.run(kSecond);
  EXPECT_EQ(c.replica<Counter>(0, "ctr")->value(), 2);
  EXPECT_EQ(c.replica<Counter>(2, "ctr")->value(), 2);
}

TEST(Active, InvocationDuringMembershipChangeIsNotLost) {
  Cluster c(4, /*seed=*/11);
  c.domain.host_on<Counter>(cfg("ctr", Style::Active), {0, 1, 2});
  ASSERT_TRUE(c.converge());
  auto fut = [&] {
    cdr::Writer enc;
    enc.put_longlong(1);
    return c.domain.client(3).invoke(
        "ctr", "incr", enc.written());
  }();
  c.run(200);          // invocation possibly in flight
  c.fabric.crash(2);   // membership change mid-operation
  c.run(3 * kSecond);
  ASSERT_TRUE(fut.ready());
  c.run(kSecond);
  EXPECT_EQ(c.replica<Counter>(0, "ctr")->value(), 1);
  EXPECT_EQ(c.replica<Counter>(1, "ctr")->value(), 1);
}

// ---------------------------------------------------------------------------
// Passive replication
// ---------------------------------------------------------------------------

TEST(WarmPassive, SecondariesTrackViaPostimages) {
  Cluster c(4);
  c.domain.host_on<Counter>(cfg("ctr", Style::WarmPassive), {0, 1, 2});
  ASSERT_TRUE(c.converge());
  EXPECT_EQ(c.invoke_i64(3, "ctr", "incr", 4), 4);
  c.run(kSecond);
  // Only the primary executed...
  EXPECT_EQ(c.domain.engine(0).stats().invocations_executed.value(), 1u);
  EXPECT_EQ(c.domain.engine(1).stats().invocations_executed.value(), 0u);
  // ...but every secondary applied the postimage.
  for (NodeId n : {0u, 1u, 2u}) {
    EXPECT_EQ(c.replica<Counter>(n, "ctr")->value(), 4) << "node " << n;
  }
  EXPECT_GE(c.domain.engine(1).stats().state_updates_applied.value(), 1u);
}

TEST(WarmPassive, FailoverPromotesNextReplica) {
  Cluster c(4);
  c.domain.host_on<Counter>(cfg("ctr", Style::WarmPassive), {0, 1, 2});
  ASSERT_TRUE(c.converge());
  EXPECT_EQ(c.invoke_i64(3, "ctr", "incr", 10), 10);
  EXPECT_TRUE(c.domain.engine(0).is_primary("ctr"));
  c.fabric.crash(0);
  ASSERT_TRUE(c.converge());
  c.run(100 * kMillisecond);
  EXPECT_TRUE(c.domain.engine(1).is_primary("ctr"));
  EXPECT_EQ(c.invoke_i64(3, "ctr", "incr", 1), 11);
  EXPECT_GE(c.domain.engine(1).stats().failovers.value(), 1u);
}

TEST(WarmPassive, InFlightOperationSurvivesPrimaryCrash) {
  Cluster c(4, /*seed=*/5);
  c.domain.host_on<Counter>(cfg("ctr", Style::WarmPassive), {0, 1, 2});
  ASSERT_TRUE(c.converge());
  cdr::Writer enc;
  enc.put_longlong(3);
  auto fut = c.domain.client(3).invoke("ctr", "incr", enc.written());
  c.run(200);         // the invocation is ordered but likely unanswered
  c.fabric.crash(0);  // primary dies
  c.run(3 * kSecond);
  ASSERT_TRUE(fut.ready());
  c.run(kSecond);
  // Exactly-once: the value reflects a single execution.
  EXPECT_EQ(c.replica<Counter>(1, "ctr")->value(), 3);
  EXPECT_EQ(c.replica<Counter>(2, "ctr")->value(), 3);
}

TEST(ColdPassive, UpdatesAppliedOnPromotion) {
  Cluster c(4);
  c.domain.host_on<Counter>(cfg("ctr", Style::ColdPassive), {0, 1, 2});
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 5; ++i) c.invoke_i64(3, "ctr", "incr", 2);
  c.run(kSecond);
  // Cold secondaries have NOT applied the updates yet.
  EXPECT_EQ(c.replica<Counter>(1, "ctr")->value(), 0);
  c.fabric.crash(0);
  ASSERT_TRUE(c.converge());
  c.run(100 * kMillisecond);
  // Promotion applied the logged postimages.
  EXPECT_EQ(c.replica<Counter>(1, "ctr")->value(), 10);
  EXPECT_EQ(c.invoke_i64(3, "ctr", "incr", 1), 11);
}

// ---------------------------------------------------------------------------
// State transfer
// ---------------------------------------------------------------------------

TEST(StateTransfer, LateReplicaAcquiresState) {
  Cluster c(4);
  c.domain.host_on<Counter>(cfg("ctr", Style::Active), {0, 1});
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 10; ++i) c.invoke_i64(3, "ctr", "incr", 1);
  c.run(kSecond);

  c.domain.engine(2).host(cfg("ctr", Style::Active),
                          std::make_shared<Counter>(), /*initial=*/false);
  c.run(2 * kSecond);
  ASSERT_TRUE(c.domain.engine(2).is_synced("ctr"));
  EXPECT_EQ(c.replica<Counter>(2, "ctr")->value(), 10);

  // The newcomer participates in subsequent operations.
  c.invoke_i64(3, "ctr", "incr", 1);
  c.run(kSecond);
  EXPECT_EQ(c.replica<Counter>(2, "ctr")->value(), 11);
}

TEST(StateTransfer, LargeStateInChunks) {
  EngineParams ep;
  ep.snapshot_chunk_bytes = 4 * 1024;
  Cluster c(3, 1, ep);
  c.domain.host_on<KvStore>(cfg("kv", Style::Active), {0, 1});
  ASSERT_TRUE(c.converge());
  cdr::Writer enc;
  enc.put_ulonglong(500);
  enc.put_ulonglong(100);
  c.domain.client(2).invoke("kv", "fill", enc.written()).get();
  c.run(kSecond);

  c.domain.engine(2).host(cfg("kv", Style::Active),
                          std::make_shared<KvStore>(), /*initial=*/false);
  c.run(5 * kSecond);
  ASSERT_TRUE(c.domain.engine(2).is_synced("kv"));
  EXPECT_EQ(c.replica<KvStore>(2, "kv")->size(), 500u);
  EXPECT_EQ(c.replica<KvStore>(2, "kv")->data(),
            c.replica<KvStore>(0, "kv")->data());
}

TEST(StateTransfer, ThreeTierCheckpointSizes) {
  Cluster c(3);
  c.domain.host_on<Counter>(cfg("ctr", Style::WarmPassive), {0, 1});
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 8; ++i) c.invoke_i64(2, "ctr", "incr", 1);
  c.run(kSecond);
  const CheckpointSizes sizes = c.domain.engine(0).checkpoint_sizes("ctr");
  EXPECT_GT(sizes.application, 0u);
  EXPECT_GT(sizes.orb, 0u) << "reply log must be part of the checkpoint";
  EXPECT_GT(sizes.infrastructure, 0u);
  EXPECT_EQ(sizes.total(),
            sizes.application + sizes.orb + sizes.infrastructure);
}

TEST(StateTransfer, SnapshotWaitsForSuspendedNestedExecution) {
  // A join marker can land while an execution delivered *before* it is
  // still suspended awaiting nested invocations: its state mutation only
  // happens at completion, after the marker. The donor must defer the
  // snapshot cut until those executions drain — otherwise the joiner
  // (which buffers only post-marker deliveries) loses the operation
  // forever. The recovery soak found this: a resyncing replica installed a
  // snapshot cut around a suspended transfer and stayed one version (and
  // one transfer) behind its siblings for good.
  Cluster c(6);
  c.domain.host_on<Teller>(cfg("teller", Style::Active), {0, 1});
  c.domain.host_on<Account>(cfg("acct.a", Style::Active), {3});
  c.domain.host_on<Account>(cfg("acct.b", Style::Active), {4});
  ASSERT_TRUE(c.converge());
  c.invoke_i64(5, "acct.a", "deposit", 1000);

  // A burst of transfers keeps nested executions suspended on the teller
  // replicas; the join fired mid-burst lands its marker among them.
  c.domain.client(5).set_max_outstanding(16);
  constexpr int kTransfers = 8;
  std::vector<Invocation> futs;
  for (int i = 0; i < kTransfers; ++i) {
    cdr::Writer enc;
    enc.put_string("acct.a");
    enc.put_string("acct.b");
    enc.put_longlong(10);
    futs.push_back(
        c.domain.client(5).invoke("teller", "transfer", enc.written()));
    c.run(kMillisecond);
  }
  c.domain.engine(2).host(cfg("teller", Style::Active),
                          std::make_shared<Teller>(), /*initial=*/false);
  c.run(10 * kSecond);

  for (auto& fut : futs) ASSERT_TRUE(fut.ready());
  ASSERT_TRUE(c.domain.engine(2).is_synced("teller"));
  // The joiner's snapshot must cover every transfer that was suspended in
  // flight when its marker arrived: all teller replicas agree on exactly
  // one execution each.
  for (NodeId n : {0u, 1u, 2u}) {
    EXPECT_EQ(c.replica<Teller>(n, "teller")->transfers(),
              static_cast<std::uint64_t>(kTransfers))
        << "node " << n;
  }
  EXPECT_EQ(c.replica<Account>(3, "acct.a")->balance(),
            1000 - 10 * kTransfers);
  EXPECT_EQ(c.replica<Account>(4, "acct.b")->balance(), 10 * kTransfers);
}

TEST(StateTransfer, RecoveredReplicaAnswersOldClientRetries) {
  // The reply log (tier-2 ORB state) travels with the checkpoint: a client
  // retry for an operation executed before the transfer is answered from
  // the log, not re-executed.
  Cluster c(4);
  c.domain.host_on<Counter>(cfg("ctr", Style::Active), {0, 1});
  ASSERT_TRUE(c.converge());
  c.invoke_i64(3, "ctr", "incr", 5);
  c.run(kSecond);
  c.domain.engine(2).host(cfg("ctr", Style::Active),
                          std::make_shared<Counter>(), false);
  c.run(2 * kSecond);
  EXPECT_EQ(c.replica<Counter>(2, "ctr")->value(), 5);
  EXPECT_EQ(c.domain.engine(2).stats().invocations_executed.value(), 0u);
}

// ---------------------------------------------------------------------------
// Nested operations across mixed replication styles
// ---------------------------------------------------------------------------

struct NestedSweep
    : ::testing::TestWithParam<std::tuple<Style, Style>> {};

TEST_P(NestedSweep, TransferAcrossGroups) {
  const auto [teller_style, account_style] = GetParam();
  Cluster c(5);
  c.domain.host_on<Teller>(cfg("teller", teller_style), {0, 1});
  c.domain.host_on<Account>(cfg("acct.a", account_style), {2, 3});
  c.domain.host_on<Account>(cfg("acct.b", account_style), {1, 4});
  ASSERT_TRUE(c.converge());

  c.invoke_i64(0, "acct.a", "deposit", 100);

  cdr::Writer enc;
  enc.put_string("acct.a");
  enc.put_string("acct.b");
  enc.put_longlong(30);
  cdr::Bytes out =
      c.domain.client(4).invoke("teller", "transfer", enc.written()).get();
  cdr::Decoder dec(out);
  EXPECT_EQ(dec.get_longlong(), 30);  // destination balance

  c.run(kSecond);
  // Authoritative balances via the infrastructure (works for every style:
  // cold-passive backups legitimately lag until promotion).
  EXPECT_EQ(c.invoke_i64(0, "acct.a", "balance", 0), 70);
  EXPECT_EQ(c.invoke_i64(0, "acct.b", "balance", 0), 30);
  if (account_style != Style::ColdPassive) {
    for (NodeId n : {2u, 3u}) {
      EXPECT_EQ(c.replica<Account>(n, "acct.a")->balance(), 70)
          << "acct.a on node " << n;
    }
    for (NodeId n : {1u, 4u}) {
      EXPECT_EQ(c.replica<Account>(n, "acct.b")->balance(), 30)
          << "acct.b on node " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StyleMatrix, NestedSweep,
    ::testing::Combine(::testing::Values(Style::Active, Style::WarmPassive,
                                         Style::ColdPassive),
                       ::testing::Values(Style::Active, Style::WarmPassive,
                                         Style::ColdPassive)));

TEST(Nested, UserExceptionPropagatesThroughChain) {
  Cluster c(4);
  c.domain.host_on<Teller>(cfg("teller", Style::Active), {0, 1});
  c.domain.host_on<Account>(cfg("acct.a", Style::Active), {2});
  c.domain.host_on<Account>(cfg("acct.b", Style::Active), {3});
  ASSERT_TRUE(c.converge());

  cdr::Writer enc;
  enc.put_string("acct.a");
  enc.put_string("acct.b");
  enc.put_longlong(50);  // overdraft: acct.a is empty
  try {
    c.domain.client(3).invoke("teller", "transfer", enc.written()).get();
    FAIL() << "expected NO_FUNDS";
  } catch (const orb::SystemException& e) {
    EXPECT_NE(e.exception_id().find("NO_FUNDS"), std::string::npos);
  }
  c.run(kSecond);
  EXPECT_EQ(c.replica<Account>(3, "acct.b")->balance(), 0);
}

TEST(Nested, PassivePrimaryCrashReinvokesUnderSameOperationId) {
  // The paper's Section 6.3.2: a new passive primary re-invokes the nested
  // operation with the same operation identifier; the target disregards the
  // duplicate but retransmits the response.
  Cluster c(5, /*seed=*/13);
  c.domain.host_on<Teller>(cfg("teller", Style::WarmPassive), {0, 1});
  c.domain.host_on<Account>(cfg("acct.a", Style::Active), {2, 3});
  c.domain.host_on<Account>(cfg("acct.b", Style::Active), {3, 4});
  ASSERT_TRUE(c.converge());
  c.invoke_i64(4, "acct.a", "deposit", 100);

  cdr::Writer enc;
  enc.put_string("acct.a");
  enc.put_string("acct.b");
  enc.put_longlong(10);
  auto fut = c.domain.client(4).invoke("teller", "transfer", enc.written());
  c.run(1200);        // teller primary has (likely) issued the withdraw
  c.fabric.crash(0);  // teller primary dies mid-chain
  c.run(5 * kSecond);
  ASSERT_TRUE(fut.ready());
  c.run(kSecond);
  // Exactly-once for the whole chain.
  EXPECT_EQ(c.replica<Account>(2, "acct.a")->balance(), 90);
  EXPECT_EQ(c.replica<Account>(4, "acct.b")->balance(), 10);
}

// ---------------------------------------------------------------------------
// Duplicate suppression
// ---------------------------------------------------------------------------

TEST(Duplicates, SenderSideSuppressionSavesMulticasts) {
  auto run = [](bool suppression) {
    EngineParams ep;
    ep.sender_side_suppression = suppression;
    Cluster c(6, 1, ep);
    c.domain.host_on<Teller>(cfg("teller", Style::Active), {0, 1, 2});
    c.domain.host_on<Account>(cfg("acct.a", Style::Active), {3, 4});
    c.domain.host_on<Account>(cfg("acct.b", Style::Active), {4, 5});
    if (!c.converge()) return std::pair<std::uint64_t, std::uint64_t>{0, 0};
    c.invoke_i64(5, "acct.a", "deposit", 1000);
    for (int i = 0; i < 5; ++i) {
      cdr::Writer enc;
      enc.put_string("acct.a");
      enc.put_string("acct.b");
      enc.put_longlong(1);
      c.domain.client(5).invoke("teller", "transfer", enc.written()).get();
    }
    c.run(kSecond);
    const std::uint64_t suppressed =
        c.domain.total([](const EngineCounters& s) {
          return s.sends_suppressed.value() + s.responses_suppressed.value();
        });
    return std::pair{c.net.stats().multicasts_sent, suppressed};
  };
  auto [mc_on, suppressed_on] = run(true);
  auto [mc_off, suppressed_off] = run(false);
  EXPECT_GT(suppressed_on, 0u);
  EXPECT_EQ(suppressed_off, 0u);
  EXPECT_LT(mc_on, mc_off);  // suppression saves network traffic
}

TEST(Duplicates, ReceiverSideCollapsesUnsuppressedCopies) {
  EngineParams ep;
  ep.sender_side_suppression = false;  // force duplicates onto the wire
  Cluster c(6, 1, ep);
  c.domain.host_on<Teller>(cfg("teller", Style::Active), {0, 1, 2});
  c.domain.host_on<Account>(cfg("acct.a", Style::Active), {3, 4});
  c.domain.host_on<Account>(cfg("acct.b", Style::Active), {4, 5});
  ASSERT_TRUE(c.converge());
  c.invoke_i64(5, "acct.a", "deposit", 100);

  cdr::Writer enc;
  enc.put_string("acct.a");
  enc.put_string("acct.b");
  enc.put_longlong(30);
  c.domain.client(5).invoke("teller", "transfer", enc.written()).get();
  c.run(kSecond);
  // Three teller replicas each multicast the nested withdraw; the account
  // replicas executed it exactly once.
  EXPECT_EQ(c.replica<Account>(3, "acct.a")->balance(), 70);
  EXPECT_EQ(c.replica<Account>(4, "acct.a")->balance(), 70);
  const std::uint64_t dropped = c.domain.total([](const EngineCounters& s) {
    return s.duplicate_invocations_dropped.value() +
           s.duplicate_replies_resent.value();
  });
  EXPECT_GT(dropped, 0u);
}

// ---------------------------------------------------------------------------
// Sanitized non-determinism
// ---------------------------------------------------------------------------

TEST(Determinism, TimeAndRandomIdenticalAcrossReplicas) {
  Cluster c(4);
  c.domain.host_on<NondetProbe>(cfg("probe", Style::Active), {0, 1, 2});
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 3; ++i) {
    c.domain.client(3).invoke("probe", "sample", {}).get();
  }
  c.run(kSecond);
  cdr::Writer s0, s1, s2;
  c.replica<NondetProbe>(0, "probe")->get_state(s0);
  c.replica<NondetProbe>(1, "probe")->get_state(s1);
  c.replica<NondetProbe>(2, "probe")->get_state(s2);
  const cdr::WireBuf state0 = s0.seal();
  EXPECT_EQ(state0, s1.seal());
  EXPECT_EQ(state0, s2.seal());
}

// ---------------------------------------------------------------------------
// Partitioning, fulfillment, remerge (the paper's Sections 7-8)
// ---------------------------------------------------------------------------

TEST(Partition, AllComponentsKeepServing) {
  Cluster c(4);
  c.domain.host_on<Counter>(cfg("ctr", Style::Active), {0, 1, 3});
  ASSERT_TRUE(c.converge());
  c.invoke_i64(2, "ctr", "incr", 1);

  c.net.set_partitions({{0, 1, 2}, {3}});
  ASSERT_TRUE(c.converge(5 * kSecond));
  // Majority component keeps serving...
  EXPECT_EQ(c.invoke_i64(2, "ctr", "incr", 1), 2);
  // ...and so does the minority (secondary) component.
  EXPECT_EQ(c.invoke_i64(3, "ctr", "incr", 1), 2);
  EXPECT_TRUE(c.domain.engine(0).in_primary_component("ctr"));
  EXPECT_FALSE(c.domain.engine(3).in_primary_component("ctr"));
}

TEST(Partition, FulfillmentReplaysSecondaryOperationsOnRemerge) {
  Cluster c(4);
  c.domain.host_on<Counter>(cfg("ctr", Style::Active), {0, 1, 3});
  ASSERT_TRUE(c.converge());

  c.net.set_partitions({{0, 1, 2}, {3}});
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.invoke_i64(2, "ctr", "incr", 10);  // primary component: +10
  c.invoke_i64(3, "ctr", "incr", 1);   // secondary component: +1 (queued)
  c.invoke_i64(3, "ctr", "incr", 1);   // secondary component: +1 (queued)
  EXPECT_EQ(c.domain.engine(3).fulfillment_backlog("ctr"), 2u);

  c.net.heal_partitions();
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.run(3 * kSecond);

  // Primary state won, then the secondary's operations were replayed.
  for (NodeId n : {0u, 1u, 3u}) {
    EXPECT_EQ(c.replica<Counter>(n, "ctr")->value(), 12) << "node " << n;
  }
  EXPECT_EQ(c.domain.engine(3).fulfillment_backlog("ctr"), 0u);
  EXPECT_GE(c.domain.engine(3).stats().fulfillment_replayed.value(), 2u);
}

TEST(Partition, InventoryScenarioFromThePaper) {
  // Factory (node 0) + two showrooms (1, 2); showroom 2 is disconnected,
  // keeps selling, and its sales are reconciled on remerge.
  Cluster c(4);
  c.domain.host_on<Inventory>(cfg("inventory", Style::Active), {0, 1, 2});
  ASSERT_TRUE(c.converge());
  c.invoke_i64(0, "inventory", "manufacture", 10);

  c.net.set_partitions({{0, 1, 3}, {2}});
  ASSERT_TRUE(c.converge(5 * kSecond));

  EXPECT_EQ(c.invoke_str(1, "inventory", "sell"), "shipped");  // primary
  EXPECT_EQ(c.invoke_str(2, "inventory", "sell"), "shipped");  // secondary
  EXPECT_EQ(c.invoke_str(2, "inventory", "sell"), "shipped");  // secondary

  c.net.heal_partitions();
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.run(3 * kSecond);

  // 1 primary sale + 2 fulfillment-replayed sales, enough stock for all.
  for (NodeId n : {0u, 1u, 2u}) {
    auto inv = c.replica<Inventory>(n, "inventory");
    EXPECT_EQ(inv->shipped(), 3) << "node " << n;
    EXPECT_EQ(inv->stock(), 7) << "node " << n;
    EXPECT_EQ(inv->rush_orders(), 0) << "node " << n;
  }
}

TEST(Partition, OversoldInventoryGeneratesRushOrders) {
  Cluster c(4);
  c.domain.host_on<Inventory>(cfg("inventory", Style::Active), {0, 1, 2});
  ASSERT_TRUE(c.converge());
  c.invoke_i64(0, "inventory", "manufacture", 1);  // a single car

  c.net.set_partitions({{0, 1, 3}, {2}});
  ASSERT_TRUE(c.converge(5 * kSecond));
  // Both showrooms sell the same last car while partitioned.
  EXPECT_EQ(c.invoke_str(1, "inventory", "sell"), "shipped");
  EXPECT_EQ(c.invoke_str(2, "inventory", "sell"), "shipped");

  c.net.heal_partitions();
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.run(3 * kSecond);

  for (NodeId n : {0u, 1u, 2u}) {
    auto inv = c.replica<Inventory>(n, "inventory");
    EXPECT_EQ(inv->stock(), 0) << "node " << n;
    EXPECT_EQ(inv->shipped(), 1) << "node " << n;
    // The fulfillment replay found the car sold: back order + rush order.
    EXPECT_EQ(inv->back_orders(), 1) << "node " << n;
    EXPECT_EQ(inv->rush_orders(), 1) << "node " << n;
  }
}

TEST(Partition, StatesConvergeAcrossSeeds) {
  for (std::uint64_t seed : {3u, 17u, 99u}) {
    Cluster c(5, seed);
    c.domain.host_on<Counter>(cfg("ctr", Style::Active), {0, 2, 4});
    ASSERT_TRUE(c.converge());
    c.invoke_i64(1, "ctr", "incr", 1);
    c.net.set_partitions({{0, 1, 2}, {3, 4}});
    ASSERT_TRUE(c.converge(5 * kSecond));
    c.invoke_i64(1, "ctr", "incr", 1);
    c.invoke_i64(3, "ctr", "incr", 1);
    c.net.heal_partitions();
    ASSERT_TRUE(c.converge(5 * kSecond));
    c.run(3 * kSecond);
    const auto v0 = c.replica<Counter>(0, "ctr")->value();
    EXPECT_EQ(v0, 3) << "seed " << seed;
    EXPECT_EQ(c.replica<Counter>(2, "ctr")->value(), v0) << "seed " << seed;
    EXPECT_EQ(c.replica<Counter>(4, "ctr")->value(), v0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace eternal::rep
