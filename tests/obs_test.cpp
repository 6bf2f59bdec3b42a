// Tests for the observability subsystem: metrics registry semantics, the
// operation-lifecycle tracer (including span ordering under active
// replication's duplicate suppression), and the membership & fault event
// journal on a scripted partition/remerge.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/servants.hpp"
#include "ft/fault_detector.hpp"
#include "ft/recovery.hpp"
#include "ft/replication_manager.hpp"
#include "obs/obs.hpp"
#include "rep/domain.hpp"

namespace eternal::obs {
namespace {

using sim::kMillisecond;
using sim::kSecond;
using sim::NodeId;

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Registry, CounterFindOrCreateReturnsStableHandle) {
  Registry reg;
  Counter& a = reg.counter("x.hits");
  Counter& b = reg.counter("x.hits");
  EXPECT_EQ(&a, &b);
  a.inc();
  a.inc(4);
  EXPECT_EQ(b.value(), 5u);
  a.reset();
  EXPECT_EQ(b.value(), 0u);
}

TEST(Registry, ResetZeroesEverythingButKeepsHandles) {
  Registry reg;
  Counter& c = reg.counter("a");
  Summary& s = reg.summary("b");
  c.inc();
  s.observe(3);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
  EXPECT_EQ(&reg.counter("a"), &c);
  EXPECT_EQ(&reg.summary("b"), &s);
}

TEST(Registry, SnapshotExportContainsMetrics) {
  Registry reg;
  reg.counter("engine.execs{node=1}").inc(3);
  reg.summary("client.rtt_us{node=0}").observe(4);
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("engine.execs{node=1} 3"), std::string::npos);
  EXPECT_NE(text.find("client.rtt_us{node=0} count=1"), std::string::npos);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"engine.execs{node=1}\":3"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"client.rtt_us{node=0}\":{\"count\":1"),
            std::string::npos);
}

TEST(Registry, NodeMetricNaming) {
  EXPECT_EQ(node_metric("totem", "broadcasts", 3), "totem.broadcasts{node=3}");
}

// ---------------------------------------------------------------------------
// Counter ownership: every component takes its registry counters through
// fresh_counter at construction, so a second cluster built in the same
// process counts from zero in every layer.
// ---------------------------------------------------------------------------

constexpr std::size_t kOwnerNodes = 4;

/// Every component that owns registry counters: engines and Totem nodes
/// (through the domain), a fault detector per node, the RM and a
/// durability plane. DurabilityPlane::attach_all() creates the dur owners.
struct OwnerCluster {
  explicit OwnerCluster(sim::DiskFarm& farm)
      : net(sim, kOwnerNodes), fabric(sim, net), domain(fabric),
        rm(domain, notifier), plane(domain, farm) {
    rm.set_durability_plane(&plane);
    for (NodeId n = 0; n < kOwnerNodes; ++n) {
      detectors.push_back(std::make_unique<ft::FaultDetector>(
          sim, fabric.group(n), notifier));
    }
  }

  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  rep::Domain domain;
  ft::FaultNotifier notifier;
  ft::ReplicationManager rm;
  ft::DurabilityPlane plane;
  std::vector<std::unique_ptr<ft::FaultDetector>> detectors;
};

std::vector<const Counter*> all_of(const rep::EngineCounters& s) {
  return {&s.invocations_executed,  &s.duplicate_invocations_dropped,
          &s.duplicate_replies_resent, &s.sends_suppressed,
          &s.responses_suppressed,  &s.state_updates_applied,
          &s.snapshots_served,      &s.snapshots_applied,
          &s.failovers,             &s.fulfillment_recorded,
          &s.fulfillment_replayed,  &s.state_digests_sent,
          &s.divergences_detected};
}

std::vector<const Counter*> all_of(const totem::NodeCounters& s) {
  return {&s.broadcasts,   &s.delivered,    &s.retransmissions,
          &s.token_visits, &s.token_losses, &s.views_installed,
          &s.batch_frames};
}

/// Per-node counter names by layer: every ftd and dur counter, and the
/// totem and engine ones the repository benchmark reads by name.
const std::map<std::string, std::vector<const char*>> kPerNodeCounters = {
    {"totem",
     {"broadcasts", "delivered", "retransmissions", "token_visits",
      "token_losses", "views_installed", "batch_frames"}},
    {"engine",
     {"invocations_executed", "duplicate_invocations_dropped",
      "duplicate_replies_resent", "sends_suppressed", "responses_suppressed",
      "state_updates_applied", "snapshots_served", "snapshots_applied",
      "failovers"}},
    {"ftd",
     {"pings_sent", "pongs_received", "faults_reported", "faults_cleared"}},
    {"dur",
     {"journal_appends", "journal_bytes", "append_failures", "journal_syncs",
      "checkpoints_cut", "compacted_bytes", "recoveries", "records_replayed",
      "checkpoint_fallbacks", "tail_lost_bytes"}},
};

/// `layer`'s per-node counters on every node of an OwnerCluster.
std::vector<const Counter*> node_counters(const std::string& layer) {
  std::vector<const Counter*> out;
  for (const char* metric : kPerNodeCounters.at(layer)) {
    for (NodeId n = 0; n < kOwnerNodes; ++n) {
      out.push_back(
          &Registry::global().counter(node_metric(layer.c_str(), metric, n)));
    }
  }
  return out;
}

std::uint64_t sum(const std::vector<const Counter*>& counters) {
  std::uint64_t total = 0;
  for (const Counter* c : counters) total += c->value();
  return total;
}

TEST(Registry, SecondClusterCountsFromZeroInEveryLayer) {
  Registry& reg = Registry::global();
  {
    sim::DiskFarm farm(kOwnerNodes);
    OwnerCluster c(farm);
    c.plane.attach_all();
    c.fabric.start_all();
    for (auto& d : c.detectors) d->start();
    for (NodeId n = 1; n < kOwnerNodes; ++n) {
      c.detectors[0]->monitor(n, 40 * kMillisecond, 15 * kMillisecond);
    }
    ft::Properties p;
    p.initial_number_replicas = 3;
    p.minimum_number_replicas = 3;
    c.rm.create_object<app::Counter>("ctr", p, {{0, 1, 2}});
    ASSERT_TRUE(c.fabric.run_until_converged(2 * kSecond));
    c.sim.run_for(300 * kMillisecond);
    for (int i = 0; i < 5; ++i) {
      cdr::Writer enc;
      enc.put_longlong(1);
      c.domain.client(3).invoke("ctr", "incr", enc.written()).get();
    }
    // A crash makes the detector report and the RM spawn a replacement.
    c.fabric.crash(1);
    c.sim.run_for(3 * kSecond);

    // Every layer counted something, so the zeroes below are real resets.
    for (const auto& [layer, metrics] : kPerNodeCounters) {
      EXPECT_GT(sum(node_counters(layer)), 0u) << layer;
    }
    EXPECT_GT(reg.counter("rm.replicas_spawned").value(), 0u);
    EXPECT_GT(reg.counter("sim.events_fired").value(), 0u);
    EXPECT_GT(reg.counter("sim.timers_scheduled").value(), 0u);
  }

  sim::DiskFarm farm(kOwnerNodes);
  OwnerCluster c(farm);
  for (NodeId n = 0; n < kOwnerNodes; ++n) {
    const rep::EngineCounters& engine = c.domain.engine(n).stats();
    EXPECT_EQ(&engine.failovers,
              &reg.counter(node_metric("engine", "failovers", n)));
    EXPECT_EQ(sum(all_of(engine)), 0u) << "engine node " << n;
    EXPECT_EQ(sum(all_of(c.fabric.node(n).stats())), 0u) << "totem node " << n;
  }
  for (const char* layer : {"totem", "engine", "ftd"}) {
    EXPECT_EQ(sum(node_counters(layer)), 0u) << layer;
  }
  EXPECT_EQ(c.rm.replicas_spawned(), 0u);
  for (const char* name :
       {"rm.replicas_spawned", "sim.events_fired", "sim.timers_scheduled"}) {
    EXPECT_EQ(reg.counter(name).value(), 0u) << name;
  }
  // The dur owners exist once attached (which also arms their sync timers).
  c.plane.attach_all();
  EXPECT_EQ(sum(node_counters("dur")), 0u);
}

// ---------------------------------------------------------------------------
// Summary (log-scale percentile sketch)
// ---------------------------------------------------------------------------

TEST(SummaryUnit, EmptyIsAllZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
  EXPECT_DOUBLE_EQ(s.p999(), 0.0);
}

TEST(SummaryUnit, QuantilesWithinBucketError) {
  Summary s;
  // 1..1000: exact p50 = 500, p90 = 900, p99 = 990.
  for (int v = 1; v <= 1000; ++v) s.observe(v);
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 1000.0);
  EXPECT_NEAR(s.mean(), 500.5, 1e-9);
  // Geometric buckets grow by 2^(1/8) ≈ 9.05%: nearest-rank estimates land
  // within one bucket (~±5% at the midpoint) of the exact percentile.
  EXPECT_NEAR(s.p50(), 500.0, 500.0 * 0.06);
  EXPECT_NEAR(s.p90(), 900.0, 900.0 * 0.06);
  EXPECT_NEAR(s.p99(), 990.0, 990.0 * 0.06);
  // p0/p100 clamp to the exact observed extremes.
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1000.0);
}

TEST(SummaryUnit, SingleValueAllQuantilesAgree) {
  Summary s;
  s.observe(42.0);
  EXPECT_DOUBLE_EQ(s.p50(), 42.0);
  EXPECT_DOUBLE_EQ(s.p999(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(SummaryUnit, ResetAndDescribe) {
  Summary s;
  s.observe(10.0);
  s.observe(20.0);
  const std::string text = s.describe();
  EXPECT_NE(text.find("count=2"), std::string::npos);
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p999="), std::string::npos);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(SummaryUnit, RegistryFindOrCreateAndExport) {
  Registry reg;
  Summary& a = reg.summary("client.rtt_us{node=3}");
  Summary& b = reg.summary("client.rtt_us{node=3}");
  EXPECT_EQ(&a, &b);
  a.observe(100.0);
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("client.rtt_us{node=3}"), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"summaries\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  reg.reset();
  EXPECT_EQ(a.count(), 0u);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledRecordIsANoOp) {
  Tracer t(16);
  EXPECT_FALSE(t.enabled());
  t.record(1, 0, OpRef{0, 1, 1}, SpanEvent::ClientSend, "x");
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.recorded(), 0u);
}

TEST(Tracer, RingOverwritesOldestAndCountsDropped) {
  Tracer t(4);
  t.enable();
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.record(i, 0, OpRef{0, 1, i}, SpanEvent::TotemDeliver, "");
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.recorded(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
  const auto recs = t.records();
  ASSERT_EQ(recs.size(), 4u);
  // Oldest surviving first: 6, 7, 8, 9.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(recs[i].time, 6 + i);
}

TEST(Tracer, RecordsForAndLastCompletedOp) {
  Tracer t(64);
  t.enable();
  const OpRef a{0, 1, 1}, b{0, 1, 2};
  t.record(10, 0, a, SpanEvent::ClientSend, "");
  t.record(20, 1, a, SpanEvent::ExecStart, "");
  t.record(30, 0, b, SpanEvent::ClientSend, "");
  t.record(40, 0, a, SpanEvent::ReplyDeliver, "");
  EXPECT_EQ(t.records_for(a).size(), 3u);
  EXPECT_EQ(t.records_for(b).size(), 1u);
  auto last = t.last_completed_op();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(*last, a);
  const std::string dump = t.dump_text(a);
  EXPECT_NE(dump.find("client_send"), std::string::npos);
  EXPECT_NE(dump.find("reply_deliver"), std::string::npos);
  EXPECT_EQ(dump.find("0:1/2"), std::string::npos);  // b's records filtered
}

TEST(Tracer, SpanAssignsMonotonicIdsAndKeepsContext) {
  Tracer t(64);
  EXPECT_EQ(t.span(1, 1, 0, OpRef{0, 1, 1}, SpanEvent::ClientSend, {7, 0}),
            0u);  // disabled: no id, nothing recorded
  t.enable();
  const std::uint64_t root =
      t.span(10, 10, 3, OpRef{0, 1, 1}, SpanEvent::ClientSend, {7, 0}, "g=x");
  const std::uint64_t child =
      t.span(20, 25, 1, OpRef{0, 1, 1}, SpanEvent::ExecStart, {7, root});
  EXPECT_NE(root, 0u);
  EXPECT_GT(child, root);

  const auto recs = t.records_for_trace(7);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].span_id, root);
  EXPECT_EQ(recs[0].parent_span, 0u);
  EXPECT_EQ(recs[0].trace_id, 7u);
  EXPECT_EQ(recs[1].span_id, child);
  EXPECT_EQ(recs[1].parent_span, root);
  EXPECT_EQ(recs[1].time, 20u);
  EXPECT_EQ(recs[1].end, 25u);
  EXPECT_TRUE(t.records_for_trace(999).empty());
  EXPECT_EQ(recs[0].ctx(), (TraceContext{7, 0}));
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

TEST(JournalUnit, BoundedAndFilterable) {
  Journal j(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    j.emit(i, 0, i % 2 == 0 ? EventKind::TokenLoss : EventKind::Failover,
           "subj", "");
  }
  EXPECT_EQ(j.size(), 4u);
  EXPECT_EQ(j.dropped(), 2u);
  EXPECT_EQ(j.events(EventKind::TokenLoss).size(), 2u);  // 2 and 4 survive
  EXPECT_EQ(j.events(EventKind::Failover).size(), 2u);
  j.enable(false);
  j.emit(99, 0, EventKind::TokenLoss, "ignored", "");
  EXPECT_EQ(j.size(), 4u);
}

TEST(JournalUnit, FormatMembers) {
  EXPECT_EQ(format_members({1, 2, 5}), "[1, 2, 5]");
  EXPECT_EQ(format_members({}), "[]");
}

// ---------------------------------------------------------------------------
// End-to-end: trace spans under duplicate suppression, journal on
// partition/remerge. Mirrors the rep_test cluster scaffolding.
// ---------------------------------------------------------------------------

struct Cluster {
  explicit Cluster(std::size_t n, std::uint64_t seed = 1)
      : sim(seed), net(sim, n), fabric(sim, net, {}), domain(fabric, {}) {
    fabric.start_all();
  }

  bool converge(sim::Time timeout = 2 * kSecond) {
    const bool ok = fabric.run_until_converged(timeout);
    sim.run_for(300 * kMillisecond);
    return ok;
  }

  std::int64_t invoke_i64(NodeId node, const std::string& group,
                          const std::string& op, std::int64_t arg) {
    cdr::Writer enc;
    enc.put_longlong(arg);
    cdr::Bytes out =
        domain.client(node).invoke(group, op, enc.written()).get();
    cdr::Decoder dec(out);
    return dec.get_longlong();
  }

  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  rep::Domain domain;
};

// The tracer and journal are process-wide; scrub them around each scenario
// so tests stay order-independent.
struct EndToEnd : ::testing::Test {
  void SetUp() override {
    Tracer::global().clear();
    Journal::global().clear();
    Journal::global().enable(true);
  }
  void TearDown() override {
    Tracer::global().enable(false);
    Tracer::global().clear();
    Journal::global().clear();
  }
};

TEST_F(EndToEnd, TraceSpansOrderedUnderDuplicateSuppression) {
  Cluster c(4);
  c.domain.host_on<app::Counter>(rep::GroupConfig{"ctr", rep::Style::Active},
                                 {0, 1, 2});
  ASSERT_TRUE(c.converge());

  Tracer::global().enable(true);
  EXPECT_EQ(c.invoke_i64(3, "ctr", "incr", 5), 5);
  c.sim.run_for(kSecond);  // let trailing sibling copies route
  Tracer::global().enable(false);

  auto last = Tracer::global().last_completed_op();
  ASSERT_TRUE(last.has_value());
  const auto recs = Tracer::global().records_for(*last);
  ASSERT_FALSE(recs.empty());

  auto count = [&](SpanEvent e) {
    return std::count_if(recs.begin(), recs.end(),
                         [&](const TraceRecord& r) { return r.event == e; });
  };
  // The timeline starts at the client and ends with its reply.
  EXPECT_EQ(recs.front().event, SpanEvent::ClientSend);
  EXPECT_EQ(count(SpanEvent::ClientSend), 1);
  EXPECT_EQ(count(SpanEvent::ReplyDeliver), 1);
  // Active replication: every replica delivered and executed the operation,
  // and every replica queued a (staggered) response…
  EXPECT_GE(count(SpanEvent::TotemDeliver), 3);
  EXPECT_EQ(count(SpanEvent::ExecStart), 3);
  EXPECT_EQ(count(SpanEvent::ExecEnd), 3);
  EXPECT_EQ(count(SpanEvent::ReplySend), 3);
  // …but duplicate suppression cancelled the losers before they multicast.
  EXPECT_GE(count(SpanEvent::ResponseSuppressed), 1);

  // Simulated timestamps are nondecreasing along the recorded timeline.
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_LE(recs[i - 1].time, recs[i].time) << "record " << i;
  }
  // Suppression tallies in the registry agree with the trace.
  std::uint64_t suppressed = 0;
  for (NodeId n : {0u, 1u, 2u}) {
    suppressed += c.domain.engine(n).stats().responses_suppressed.value();
  }
  EXPECT_GE(suppressed,
            static_cast<std::uint64_t>(count(SpanEvent::ResponseSuppressed)));
}

TEST_F(EndToEnd, CausalChainLinksClientTokenExecAndReply) {
  Cluster c(4);
  c.domain.host_on<app::Counter>(rep::GroupConfig{"ctr", rep::Style::Active},
                                 {0, 1, 2});
  ASSERT_TRUE(c.converge());

  Tracer::global().enable(true);
  EXPECT_EQ(c.invoke_i64(3, "ctr", "incr", 5), 5);
  c.sim.run_for(kSecond);
  Tracer::global().enable(false);

  auto last = Tracer::global().last_completed_op();
  ASSERT_TRUE(last.has_value());
  const auto op_recs = Tracer::global().records_for(*last);
  ASSERT_FALSE(op_recs.empty());
  const std::uint64_t trace = op_recs.front().trace_id;
  ASSERT_NE(trace, 0u);

  // Every record of the chain — including the token-visit sends recorded at
  // the ordering layer, which never sees the operation id — carries the
  // same trace id, and exactly one root span exists: the client send.
  const auto chain = Tracer::global().records_for_trace(trace);
  ASSERT_GE(chain.size(), op_recs.size());
  std::size_t roots = 0, token_visits = 0;
  std::uint64_t client_span = 0;
  for (const TraceRecord& r : chain) {
    EXPECT_EQ(r.trace_id, trace);
    if (r.parent_span == 0) {
      ++roots;
      EXPECT_EQ(r.event, SpanEvent::ClientSend);
      client_span = r.span_id;
    }
    if (r.event == SpanEvent::TokenVisitSend) ++token_visits;
  }
  EXPECT_EQ(roots, 1u);
  ASSERT_NE(client_span, 0u);
  EXPECT_GE(token_visits, 1u);

  // Parent links stay inside the chain: every non-root parent is the span
  // id of another record of the same trace.
  std::vector<std::uint64_t> ids;
  for (const TraceRecord& r : chain) ids.push_back(r.span_id);
  for (const TraceRecord& r : chain) {
    if (r.parent_span == 0) continue;
    EXPECT_NE(std::find(ids.begin(), ids.end(), r.parent_span), ids.end())
        << to_string(r.event) << " parent " << r.parent_span
        << " not in trace";
  }

  // Stage wiring: the invocation's token visit and the replicas' deliveries
  // and executions all parent on the client-send span; replies parent on an
  // execution span.
  for (const TraceRecord& r : chain) {
    if (r.event == SpanEvent::ExecStart) {
      EXPECT_EQ(r.parent_span, client_span);
    }
    if (r.event == SpanEvent::ReplyDeliver) {
      EXPECT_NE(r.parent_span, client_span);
      EXPECT_NE(r.parent_span, 0u);
    }
  }
}

TEST_F(EndToEnd, NestedInvocationsChainOntoParentExecutionSpan) {
  Cluster c(5);
  c.domain.host_on<app::Teller>(
      rep::GroupConfig{"teller", rep::Style::Active}, {0, 1});
  c.domain.host_on<app::Account>(
      rep::GroupConfig{"acct.a", rep::Style::Active}, {2, 3});
  c.domain.host_on<app::Account>(
      rep::GroupConfig{"acct.b", rep::Style::Active}, {1, 4});
  ASSERT_TRUE(c.converge());

  {
    cdr::Writer enc;
    enc.put_longlong(100);
    c.domain.client(0).invoke("acct.a", "deposit", enc.written()).get();
  }

  Tracer::global().enable(true);
  cdr::Writer enc;
  enc.put_string("acct.a");
  enc.put_string("acct.b");
  enc.put_longlong(30);
  c.domain.client(4).invoke("teller", "transfer", enc.written()).get();
  c.sim.run_for(kSecond);
  Tracer::global().enable(false);

  // The whole transfer — outer op plus the nested withdraw and deposit —
  // shares the root trace id (derived from the root operation, so it is
  // stable end to end).
  auto last = Tracer::global().last_completed_op();
  ASSERT_TRUE(last.has_value());
  const auto root_recs = Tracer::global().records_for(*last);
  ASSERT_FALSE(root_recs.empty());
  const std::uint64_t trace = root_recs.front().trace_id;
  ASSERT_NE(trace, 0u);

  const auto chain = Tracer::global().records_for_trace(trace);
  std::vector<OpRef> exec_ops;
  std::vector<std::uint64_t> teller_exec_spans;
  for (const TraceRecord& r : chain) {
    if (r.event != SpanEvent::ExecStart) continue;
    if (std::find(exec_ops.begin(), exec_ops.end(), r.op) == exec_ops.end()) {
      exec_ops.push_back(r.op);
    }
    if (r.op == *last) teller_exec_spans.push_back(r.span_id);
  }
  // Three distinct operations executed under one trace: transfer, withdraw,
  // deposit.
  EXPECT_GE(exec_ops.size(), 3u);
  ASSERT_FALSE(teller_exec_spans.empty());

  // Nested executions parent on the teller execution span that issued them.
  std::size_t nested_execs = 0;
  for (const TraceRecord& r : chain) {
    if (r.event != SpanEvent::ExecStart || r.op == *last) continue;
    ++nested_execs;
    EXPECT_NE(std::find(teller_exec_spans.begin(), teller_exec_spans.end(),
                        r.parent_span),
              teller_exec_spans.end())
        << "nested exec of " << r.op.str()
        << " does not parent on a teller execution span";
  }
  EXPECT_GE(nested_execs, 2u);
}

TEST_F(EndToEnd, JournalTellsThePartitionRemergeStory) {
  Cluster c(4);
  c.domain.host_on<app::Counter>(rep::GroupConfig{"ctr", rep::Style::Active},
                                 {0, 1, 3});
  ASSERT_TRUE(c.converge());

  c.net.set_partitions({{0, 1, 2}, {3}});
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.invoke_i64(3, "ctr", "incr", 1);  // secondary component: queued
  c.net.heal_partitions();
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.sim.run_for(3 * kSecond);

  const Journal& j = Journal::global();
  // The partition shows up as token losses and fresh rings on both sides…
  EXPECT_FALSE(j.events(EventKind::TokenLoss).empty());
  EXPECT_FALSE(j.events(EventKind::RingViewInstalled).empty());
  EXPECT_FALSE(j.events(EventKind::GroupViewInstalled).empty());
  // …node 3's replica learns it is in a secondary component…
  const auto secondary = j.events(EventKind::PartitionSecondary);
  ASSERT_FALSE(secondary.empty());
  EXPECT_EQ(secondary.front().node, 3u);
  EXPECT_EQ(secondary.front().subject, "ctr");
  // …and the heal is detected as a remerge.
  EXPECT_FALSE(j.events(EventKind::RemergeDetected).empty());

  // The journal reads as one time-ordered story.
  const auto all = j.events();
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].time, all[i].time) << "event " << i;
  }
  const std::string dump = j.dump_text();
  EXPECT_NE(dump.find("token_loss"), std::string::npos);
  EXPECT_NE(dump.find("partition_secondary"), std::string::npos);
  EXPECT_NE(dump.find("remerge_detected"), std::string::npos);
}

}  // namespace
}  // namespace eternal::obs
