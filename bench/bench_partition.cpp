// E7 — Partition operation and remerge reconciliation cost.
//
// A counter group spans both sides of a partition. The secondary component
// keeps serving (queueing fulfillment operations); on remerge the
// infrastructure transfers the primary component's state and replays the
// queue. We sweep the number of secondary-component operations and measure
// the reconciliation time (heal -> all replicas byte-identical).
//
// Expected shape: both components serve at normal latency while
// partitioned; reconciliation is dominated by re-membership plus state
// transfer, with the fulfillment replay adding a sub-linear tail (the
// ordered multicast pipelines the whole queue).
#include "harness.hpp"

using namespace eternal;
using namespace eternal::bench;

namespace {

struct Result {
  double secondary_lat_us = 0;  // client latency inside the minority component
  double reconcile_ms = 0;      // heal -> replicas consistent
  std::uint64_t replayed = 0;
};

Result measure(int secondary_ops, std::uint64_t seed) {
  FtCluster c(5, seed);
  c.domain.host_on<app::Counter>(
      rep::GroupConfig{"ctr", rep::Style::Active}, {0, 1, 4});
  c.settle();
  c.timed_call(2, "ctr", "incr", i64_arg(1));

  c.net.set_partitions({{0, 1, 2, 3}, {4}});
  c.fabric.run_until_converged(5 * sim::kSecond);
  c.settle(500 * sim::kMillisecond);

  // Primary side does some work; the secondary serves `secondary_ops`.
  for (int i = 0; i < 10; ++i) c.timed_call(2, "ctr", "incr", i64_arg(1));
  util::Summary sec_lat;
  for (int i = 0; i < secondary_ops; ++i) {
    sec_lat.add(static_cast<double>(
        c.timed_call(4, "ctr", "incr", i64_arg(1))));
  }

  const std::int64_t expected = 1 + 10 + secondary_ops;
  c.net.heal_partitions();
  const sim::Time heal_at = c.sim.now();
  auto value_of = [&](sim::NodeId n) {
    auto r = std::dynamic_pointer_cast<app::Counter>(
        c.domain.engine(n).local_replica("ctr"));
    return r ? r->value() : -1;
  };
  while (c.sim.now() < heal_at + 300 * sim::kSecond) {
    if (value_of(0) == expected && value_of(1) == expected &&
        value_of(4) == expected) {
      break;
    }
    c.sim.step();
  }
  Result r{};
  r.secondary_lat_us = sec_lat.mean();
  r.reconcile_ms =
      static_cast<double>(c.sim.now() - heal_at) / sim::kMillisecond;
  r.replayed = c.domain.engine(4).stats().fulfillment_replayed.value();
  return r;
}

}  // namespace

int main() {
  banner("E7", "partitioned operation and remerge reconciliation");
  Table table({"secondary ops", "secondary lat (us)", "replayed",
               "reconcile (ms)"});
  for (int ops : {5, 25, 100, 250, 500}) {
    util::Summary lat, rec;
    std::uint64_t replayed = 0;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      const Result r = measure(ops, seed);
      lat.add(r.secondary_lat_us);
      rec.add(r.reconcile_ms);
      replayed = r.replayed;
    }
    table.row({std::to_string(ops), fmt(lat.mean()), fmt_u(replayed),
               fmt(rec.mean(), 1)});
  }
  table.print();
  std::puts("\nshape check: the disconnected component serves at normal "
            "latency; reconciliation is dominated by re-membership plus "
            "state transfer, with the fulfillment replay adding a sub-linear "
            "tail (the ordered multicast pipelines the queue).");
  obs_report("partition");
  return 0;
}
