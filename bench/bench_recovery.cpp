// E14 — whole-domain recovery time vs journal length × checkpoint interval.
//
// A three-replica counter group takes N increments, every replica is
// power-cut, and the domain cold-restarts from the durable journals and
// checkpoints. The recovery cost is the durability subsystem's simulated
// model (the simulator has no wall clock): replay_us_per_record per gated
// journal record plus load_us_per_kib per checkpoint KiB, maximised across
// nodes (nodes recover in parallel).
//
// Expected shape: with checkpointing disabled (interval 0) recovery replays
// the whole journal and cost grows linearly with the operation count. With
// periodic checkpoints the replay suffix is bounded by the interval, so the
// cost stays FLAT in log length — the property that makes long-lived
// domains restartable at all. `--smoke` runs a reduced sweep and enforces
// the flatness as a regression guard (exit 1 when checkpointed recovery
// cost scales with history length).
//
// Each run also counts heap allocations per operation over its durable
// traffic phase, and subtracts the same traffic run without the durability
// plane: what is left is the durable write path's own share (journal
// appends, group-commit syncs and meta rewrites, checkpoint cuts).
// `--max-allocs N` fails the run when the mean durable-path figure exceeds
// N. Every operation journals three records (one per replica), so a
// per-record allocation creeping back adds 3 allocs/op and trips the
// smoke test.
//
// Usage: bench_recovery [--smoke] [--max-allocs N]
#include "ft/recovery.hpp"
#include "harness.hpp"

using namespace eternal;
using namespace eternal::bench;

namespace {

struct Measured {
  dur::RecoveryStats stats;
  double allocs_per_op = 0;  // over the traffic phase
};

/// `ops` increments on a three-replica Counter; with `durable`, under the
/// durability plane (checkpoint every `interval` versions), followed by a
/// whole-domain power cut and cold restart.
Measured measure(int ops, std::uint64_t interval, bool durable = true) {
  sim::DiskFarm farm(3);
  // The client waits for each reply, so its watermark acknowledges every
  // earlier operation: the retained replies, and with them each
  // checkpoint's blob, stay the same size however long the history.
  FtCluster c(3, /*seed=*/1);
  dur::DurParams dp;
  dp.checkpoint_interval = interval;
  ft::DurabilityPlane plane(c.domain, farm, dp);
  if (durable) {
    c.rm.set_durability_plane(&plane);
    plane.attach_all();
  }

  ft::Properties props;
  props.replication_style = rep::Style::Active;
  props.initial_number_replicas = 3;
  props.minimum_number_replicas = 2;
  c.rm.create_object<app::Counter>("ctr", props, {{0, 1, 2}});
  c.settle();

  Measured out;
  const cdr::Bytes arg = i64_arg(1);
  const AllocWindow allocs;
  for (int i = 0; i < ops; ++i) {
    c.domain.client(0).invoke("ctr", "incr", arg).get();
  }
  out.allocs_per_op = allocs.per_op(static_cast<std::uint64_t>(ops));
  if (!durable) return out;
  plane.sync_all();
  for (sim::NodeId n : {0u, 1u, 2u}) {
    c.fabric.crash(n);
    plane.crash(n, /*torn=*/false);
  }
  c.sim.run_for(200 * sim::kMillisecond);

  out.stats = c.rm.recover_domain();
  c.fabric.run_until_converged(8 * sim::kSecond);
  return out;
}

std::string interval_label(std::uint64_t interval) {
  return interval == 0 ? "none (full replay)" : std::to_string(interval);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  // Checkpoint size is constant across the sweep (the client acknowledges
  // every reply), so only replay length varies.
  const std::vector<int> op_counts =
      smoke ? std::vector<int>{128, 512} : std::vector<int>{128, 512, 1024};
  const std::vector<std::uint64_t> intervals = {0, 8, 32};

  banner("E14", "domain recovery cost vs log length x checkpoint interval");
  Table table({"ops", "ckpt interval", "ckpts loaded", "records replayed",
               "recovery cost (us)", "traffic allocs/op",
               "durable-path allocs/op"});

  // cost[interval] per op count, for the shape check.
  std::map<std::uint64_t, std::vector<double>> costs;
  std::vector<double> allocs_per_op;  // durable-path share, per op
  for (const int ops : op_counts) {
    const double plain = measure(ops, 0, /*durable=*/false).allocs_per_op;
    for (const std::uint64_t interval : intervals) {
      const Measured m = measure(ops, interval);
      const dur::RecoveryStats& s = m.stats;
      costs[interval].push_back(static_cast<double>(s.simulated_cost_us));
      allocs_per_op.push_back(m.allocs_per_op - plain);
      table.row({std::to_string(ops), interval_label(interval),
                 fmt_u(s.checkpoints_loaded), fmt_u(s.records_replayed),
                 fmt_u(s.simulated_cost_us), fmt(m.allocs_per_op),
                 fmt(m.allocs_per_op - plain, 2)});
    }
  }
  table.print();

  // Flatness guard: checkpointed recovery must not scale with history —
  // the longest log may cost at most 4x the shortest (the slack covers the
  // replay suffix landing anywhere inside one checkpoint interval). The
  // uncheckpointed baseline must meanwhile grow, or the sweep measured
  // nothing.
  const std::vector<double>& flat = costs[intervals.back()];
  const std::vector<double>& linear = costs[0];
  const double flat_ratio = flat.back() / std::max(flat.front(), 1.0);
  const double linear_ratio = linear.back() / std::max(linear.front(), 1.0);
  std::printf("\nshape check: checkpointed cost ratio (longest/shortest log) "
              "%.2f (budget 4.0); full-replay ratio %.2f (must exceed 2.0)\n",
              flat_ratio, linear_ratio);
  int rc = 0;
  if (flat_ratio > 4.0) {
    std::printf("FAIL: checkpointed recovery cost scales with log length\n");
    rc = 1;
  }
  if (linear_ratio < 2.0) {
    std::printf("FAIL: full-replay baseline did not grow with the log — "
                "the sweep is not measuring replay\n");
    rc = 1;
  }
  if (enforce_alloc_budget(alloc_budget(argc, argv), allocs_per_op) != 0) {
    rc = 1;
  }
  obs_report("recovery");
  return rc;
}
