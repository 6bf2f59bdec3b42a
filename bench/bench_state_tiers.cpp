// E9 — The three tiers of state (the paper's headline lesson).
//
// A consistent checkpoint is NOT just the application state: it must carry
// the ORB state (per-client floors and the replies clients have not yet
// acknowledged — or a recovered replica re-executes operations and cannot
// answer client retries) and the infrastructure state (versions, invocation
// log, synced set). This bench reports the per-tier checkpoint sizes as the
// operation history grows, and demonstrates the recovery-correctness
// consequence.
//
// It also guards that durable checkpoints stop growing with history: the
// same durable workload (pipelined increments plus nested Teller->Account
// transfers, checkpoint every 64 versions) runs for 2,000 and for 20,000
// operations, and the mean checkpoint file on disk may be at most 10%
// larger after the longer run. `--smoke` runs only that guard and exits 1
// when it fails (a ctest).
//
// Usage: bench_state_tiers [--smoke]
#include <cstring>
#include <deque>

#include "ft/recovery.hpp"
#include "harness.hpp"

using namespace eternal;
using namespace eternal::bench;

namespace {

/// Mean checkpoint file size (bytes, over every node's retained files)
/// after `ops` operations of the durable workload.
double durable_checkpoint_bytes(int ops) {
  FtCluster c(4, /*seed=*/1);
  sim::DiskFarm farm(4);
  dur::DurParams dp;
  dp.checkpoint_interval = 64;
  ft::DurabilityPlane plane(c.domain, farm, dp);
  c.rm.set_durability_plane(&plane);
  plane.attach_all();
  ft::Properties props;
  props.replication_style = rep::Style::Active;
  props.initial_number_replicas = 3;
  props.minimum_number_replicas = 2;
  c.rm.create_object<app::Counter>("ctr", props, {{0, 1, 2}});
  c.rm.create_object<app::Teller>("teller", props, {{0, 1, 2}});
  c.rm.create_object<app::Account>("acct-a", props, {{0, 1, 2}});
  c.rm.create_object<app::Account>("acct-b", props, {{0, 1, 2}});
  c.settle();
  rep::Client& client = c.domain.client(3);
  client.invoke("acct-a", "deposit", i64_arg(1'000'000)).get();
  cdr::Writer transfer;
  transfer.put_string("acct-a");
  transfer.put_string("acct-b");
  transfer.put_longlong(1);
  const cdr::Bytes one = i64_arg(1);
  std::deque<rep::Invocation> window;
  for (int i = 0; i < ops; ++i) {
    if (window.size() == 8) {
      window.front().get(30 * sim::kSecond);
      window.pop_front();
    }
    window.push_back(i % 5 == 4
                         ? client.invoke("teller", "transfer",
                                         transfer.written())
                         : client.invoke("ctr", "incr", one));
  }
  for (rep::Invocation& inv : window) inv.get(30 * sim::kSecond);
  c.settle();
  double bytes = 0;
  double files = 0;
  for (sim::NodeId n = 0; n < 3; ++n) {
    for (const std::string& f : farm.disk(n).list("ckpt-")) {
      bytes += static_cast<double>(farm.disk(n).size(f));
      ++files;
    }
  }
  return files > 0 ? bytes / files : 0;
}

/// The flatness guard: 0 when the checkpoint did not grow with history.
int checkpoint_flatness() {
  const double shorter = durable_checkpoint_bytes(2'000);
  const double longer = durable_checkpoint_bytes(20'000);
  const double ratio = longer / std::max(shorter, 1.0);
  std::printf("checkpoint flatness: mean checkpoint %.0f B after 2,000 ops, "
              "%.0f B after 20,000 (ratio %.3f, budget 1.10)\n",
              shorter, longer, ratio);
  if (shorter <= 0 || ratio > 1.10) {
    std::printf("FAIL: durable checkpoints grow with history\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return checkpoint_flatness();
  }
  banner("E9", "three-tier checkpoint composition");
  Table table({"servant", "ops executed", "tier1 app (B)", "tier2 ORB (B)",
               "tier3 infra (B)", "total (B)"});

  for (int ops : {0, 16, 64, 256, 1024}) {
    FtCluster c(3);
    c.domain.host_on<app::Counter>(
        rep::GroupConfig{"ctr", rep::Style::WarmPassive}, {0, 1});
    c.settle();
    for (int i = 0; i < ops; ++i) c.timed_call(2, "ctr", "incr", i64_arg(1));
    c.settle();
    const rep::CheckpointSizes s = c.domain.engine(0).checkpoint_sizes("ctr");
    table.row({"Counter", std::to_string(ops), fmt_u(s.application),
               fmt_u(s.orb), fmt_u(s.infrastructure), fmt_u(s.total())});
  }
  for (int entries : {64, 1024}) {
    FtCluster c(3);
    c.domain.host_on<app::KvStore>(
        rep::GroupConfig{"kv", rep::Style::Active}, {0, 1});
    c.settle();
    cdr::Writer fill;
    fill.put_ulonglong(entries);
    fill.put_ulonglong(64);
    c.domain.client(2)
        .invoke("kv", "fill", fill.written())
        .get(60 * sim::kSecond);
    for (int i = 0; i < 32; ++i) {
      cdr::Writer put;
      put.put_string("k" + std::to_string(i));
      put.put_string("v");
      c.timed_call(2, "kv", "put", put.written());
    }
    c.settle();
    const rep::CheckpointSizes s = c.domain.engine(0).checkpoint_sizes("kv");
    table.row({"KvStore(" + std::to_string(entries) + ")", "33",
               fmt_u(s.application), fmt_u(s.orb), fmt_u(s.infrastructure),
               fmt_u(s.total())});
  }
  table.print();

  // Recovery-correctness consequence: a replica recovered WITH tier 2 can
  // answer a client retry from the reply log without re-executing.
  std::puts("");
  {
    FtCluster c(4);
    c.domain.host_on<app::Counter>(
        rep::GroupConfig{"ctr", rep::Style::Active}, {0, 1});
    c.settle();
    for (int i = 0; i < 10; ++i) c.timed_call(3, "ctr", "incr", i64_arg(1));
    c.settle();
    c.domain.engine(2).host(rep::GroupConfig{"ctr", rep::Style::Active},
                            std::make_shared<app::Counter>(), false);
    c.settle(3 * sim::kSecond);
    auto replica = std::dynamic_pointer_cast<app::Counter>(
        c.domain.engine(2).local_replica("ctr"));
    std::printf("recovered replica: value=%lld, re-executions=%llu "
                "(application state via tier 1, duplicate immunity via "
                "tiers 2+3)\n",
                static_cast<long long>(replica->value()),
                static_cast<unsigned long long>(
                    c.domain.engine(2).stats().invocations_executed.value()));
  }
  std::puts("shape check: tier-2 ORB state stays flat as the operation "
            "history grows (a reply leaves once its client acknowledges it), "
            "yet transferring application state alone would be incorrect.");
  const int rc = checkpoint_flatness();
  obs_report("state_tiers");
  return rc;
}
