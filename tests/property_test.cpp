// Property-based tests: randomized workloads and fault schedules, driven by
// seeds, asserting the paper's core invariants:
//
//   * replica consistency — all synced replicas byte-identical;
//   * exactly-once — the counter value equals the number of completed
//     operations, regardless of retries, failovers and duplicates;
//   * convergence — after partition + remerge + fulfillment, all replicas
//     agree and no operation is lost;
//   * conservation — nested transfers never create or destroy money.
#include <gtest/gtest.h>

#include "app/servants.hpp"
#include "rep/domain.hpp"
#include "util/prng.hpp"

namespace eternal {
namespace {

using app::Account;
using app::Counter;
using app::Teller;
using sim::kMillisecond;
using sim::kSecond;
using sim::NodeId;

struct Cluster {
  explicit Cluster(std::size_t n, std::uint64_t seed)
      : sim(seed), net(sim, n), fabric(sim, net), domain(fabric) {
    fabric.start_all();
  }

  bool converge(sim::Time timeout = 5 * kSecond) {
    const bool ok = fabric.run_until_converged(timeout);
    sim.run_for(300 * kMillisecond);
    return ok;
  }

  std::int64_t incr(NodeId node) {
    cdr::Writer enc;
    enc.put_longlong(1);
    cdr::Bytes out = domain.client(node)
                         .invoke("ctr", "incr", enc.written())
                         .get(30 * kSecond);
    cdr::Decoder dec(out);
    return dec.get_longlong();
  }

  cdr::Bytes state_of(NodeId node, const std::string& group) {
    auto r = domain.engine(node).local_replica(group);
    if (!r) return {};
    cdr::Writer enc;
    r->get_state(enc);
    return enc.seal().to_bytes();
  }

  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  rep::Domain domain;
};

// ---------------------------------------------------------------------------
// Random crash/restart schedules under load
// ---------------------------------------------------------------------------

struct CrashChaos
    : ::testing::TestWithParam<std::tuple<std::uint64_t, rep::Style>> {};

TEST_P(CrashChaos, ExactlyOnceAndReplicaEquality) {
  const auto [seed, style] = GetParam();
  util::Xoshiro256 rng(seed * 77 + 1);
  Cluster c(5, seed);
  const std::vector<NodeId> replicas{0, 1, 2};
  c.domain.host_on<Counter>(rep::GroupConfig{"ctr", style}, replicas);
  ASSERT_TRUE(c.converge());

  std::int64_t completed = 0;
  NodeId down = 0;
  bool crashed = false;
  for (int i = 0; i < 30; ++i) {
    // Random chaos step: crash one replica, or restart+rehost it.
    if (!crashed && rng.chance(0.15)) {
      down = replicas[rng.below(replicas.size())];
      crashed = true;
      c.fabric.crash(down);
    } else if (crashed && rng.chance(0.3)) {
      c.domain.restart(down);
      ASSERT_TRUE(c.converge());
      c.domain.engine(down).host(rep::GroupConfig{"ctr", style},
                                 std::make_shared<Counter>(), false);
      crashed = false;
    }
    const NodeId client = 3 + static_cast<NodeId>(rng.below(2));
    EXPECT_EQ(c.incr(client), ++completed) << "op " << i << " seed " << seed;
  }
  if (crashed) {
    c.domain.restart(down);
    c.domain.engine(down).host(rep::GroupConfig{"ctr", style},
                               std::make_shared<Counter>(), false);
  }
  ASSERT_TRUE(c.converge());
  c.sim.run_for(5 * kSecond);

  // Every synced replica holds the identical, exactly-once state.
  cdr::Bytes reference;
  for (NodeId n : replicas) {
    if (!c.domain.engine(n).is_synced("ctr")) continue;
    auto replica = std::dynamic_pointer_cast<Counter>(
        c.domain.engine(n).local_replica("ctr"));
    ASSERT_NE(replica, nullptr);
    EXPECT_EQ(replica->value(), completed) << "node " << n;
    cdr::Bytes st = c.state_of(n, "ctr");
    if (reference.empty()) {
      reference = st;
    } else {
      EXPECT_EQ(st, reference) << "node " << n;
    }
  }
  EXPECT_FALSE(reference.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CrashChaos,
    ::testing::Combine(::testing::Values(1u, 7u, 23u, 51u),
                       ::testing::Values(rep::Style::Active,
                                         rep::Style::WarmPassive)));

// ---------------------------------------------------------------------------
// Random partitions: convergence with no lost operations
// ---------------------------------------------------------------------------

struct PartitionChaos : ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionChaos, ConvergesWithAllOperations) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256 rng(seed * 131 + 5);
  Cluster c(6, seed);
  c.domain.host_on<Counter>(rep::GroupConfig{"ctr", rep::Style::Active},
                            {0, 2, 4});
  ASSERT_TRUE(c.converge());

  std::int64_t total = 0;
  for (int round = 0; round < 3; ++round) {
    // Random two-way split that keeps replicas on both sides.
    std::vector<NodeId> left{0}, right{4};
    for (NodeId n : {1u, 2u, 3u, 5u}) {
      (rng.chance(0.5) ? left : right).push_back(n);
    }
    c.net.set_partitions({left, right});
    ASSERT_TRUE(c.converge(10 * kSecond));

    // A few operations on each side, issued by clients inside the side.
    const int k = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < k; ++i) {
      c.incr(left.front());
      ++total;
      c.incr(right.front());
      ++total;
    }
    c.net.heal_partitions();
    ASSERT_TRUE(c.converge(10 * kSecond));
    c.sim.run_for(5 * kSecond);
  }

  for (NodeId n : {0u, 2u, 4u}) {
    auto replica = std::dynamic_pointer_cast<Counter>(
        c.domain.engine(n).local_replica("ctr"));
    ASSERT_NE(replica, nullptr);
    EXPECT_EQ(replica->value(), total) << "node " << n << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionChaos,
                         ::testing::Values(2u, 11u, 29u, 47u, 83u));

// ---------------------------------------------------------------------------
// Nested transfers conserve money across random faults
// ---------------------------------------------------------------------------

struct TransferChaos
    : ::testing::TestWithParam<std::tuple<std::uint64_t, rep::Style>> {};

TEST_P(TransferChaos, MoneyIsConserved) {
  const auto [seed, teller_style] = GetParam();
  util::Xoshiro256 rng(seed * 17 + 3);
  Cluster c(6, seed);
  c.domain.host_on<Teller>(rep::GroupConfig{"teller", teller_style}, {0, 1});
  c.domain.host_on<Account>(rep::GroupConfig{"acct.a", rep::Style::Active},
                            {2, 3});
  c.domain.host_on<Account>(rep::GroupConfig{"acct.b", rep::Style::Active},
                            {3, 4});
  ASSERT_TRUE(c.converge());

  cdr::Writer dep;
  dep.put_longlong(1000);
  c.domain.client(5).invoke("acct.a", "deposit", dep.written()).get();

  bool crashed = false;
  int transfers_done = 0;
  for (int i = 0; i < 8; ++i) {
    cdr::Writer args;
    args.put_string("acct.a");
    args.put_string("acct.b");
    args.put_longlong(10);
    auto fut = c.domain.client(5).invoke("teller", "transfer", args.written());
    // Occasionally crash a teller replica mid-chain (once per run).
    if (!crashed && rng.chance(0.4)) {
      c.sim.run_for(rng.below(1500));
      c.fabric.crash(static_cast<NodeId>(rng.below(2)));  // teller node 0/1
      crashed = true;
    }
    c.sim.run_for(15 * kSecond);
    ASSERT_TRUE(fut.ready()) << "transfer " << i << " seed " << seed;
    ++transfers_done;
  }
  c.sim.run_for(2 * kSecond);

  auto balance = [&](const std::string& acct) {
    cdr::Bytes out = c.domain.client(5).invoke(acct, "balance", {}).get();
    cdr::Decoder dec(out);
    return dec.get_longlong();
  };
  const std::int64_t a = balance("acct.a");
  const std::int64_t b = balance("acct.b");
  EXPECT_EQ(a + b, 1000) << "money not conserved, seed " << seed;
  EXPECT_EQ(b, 10 * transfers_done);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TransferChaos,
    ::testing::Combine(::testing::Values(3u, 19u, 41u),
                       ::testing::Values(rep::Style::Active,
                                         rep::Style::WarmPassive)));

// ---------------------------------------------------------------------------
// Determinism: identical seeds give identical executions
// ---------------------------------------------------------------------------

TEST(Replay, SameSeedSameExecution) {
  auto run = [](std::uint64_t seed) {
    Cluster c(4, seed);
    c.domain.host_on<Counter>(rep::GroupConfig{"ctr", rep::Style::Active},
                              {0, 1, 2});
    c.converge();
    for (int i = 0; i < 10; ++i) c.incr(3);
    c.fabric.crash(1);
    c.converge();
    for (int i = 0; i < 5; ++i) c.incr(3);
    c.sim.run_for(kSecond);
    return std::tuple{c.sim.now(), c.sim.events_executed(),
                      c.state_of(0, "ctr")};
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(std::get<1>(run(99)), std::get<1>(run(100)));
}

}  // namespace
}  // namespace eternal
