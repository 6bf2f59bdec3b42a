// E11 — Pipelined invocation throughput and token-visit batching.
//
// A closed-loop client keeps K invocations outstanding against an actively
// replicated counter (K = 1 is the blocking baseline: each call waits for
// its reply before the next is issued). Two effects are measured:
//
//  * **Pipelining** — ops/s vs K. With one operation per token rotation the
//    blocking client pays a full rotation per op; a pipelined client
//    amortises the rotation across every operation in flight.
//  * **Batching** — token rotations per op and wire frames, with
//    Params::max_batch on vs off at fixed K. The sender packs its pending
//    envelopes into one Batch frame per token visit, so a small per-visit
//    window no longer bounds throughput to window ops per rotation.
//
// The token window is deliberately small (4 frames/visit) so the frame
// budget — not the client — is the bottleneck the batching has to beat.
//
// Usage: bench_throughput [--smoke]
#include <cstring>
#include <deque>

#include "harness.hpp"
#include "orb/exceptions.hpp"
#include "rep/stub.hpp"

using namespace eternal;
using namespace eternal::bench;

namespace {

struct Point {
  double ops_per_sec = 0;
  double rotations_per_op = 0;
  double latency_us = 0;       // mean completion latency per op
  std::uint64_t batch_frames = 0;  // Batch frames sent, cluster-wide
  double allocs_per_op = 0;    // counted operator-new calls per completed op
};

Point measure(std::size_t replicas, int outstanding, std::uint32_t max_batch,
              int total_ops) {
  totem::Params tp;
  tp.window = 4;  // tight frame budget: rotations are the scarce resource
  tp.max_batch = max_batch;
  FtCluster c(replicas + 1, /*seed=*/1, {}, tp);

  ft::Properties props;
  props.replication_style = rep::Style::Active;
  props.initial_number_replicas = static_cast<std::uint32_t>(replicas);
  props.minimum_number_replicas = static_cast<std::uint32_t>(replicas);
  std::vector<sim::NodeId> nodes;
  for (std::size_t i = 0; i < replicas; ++i) {
    nodes.push_back(static_cast<sim::NodeId>(i));
  }
  c.rm.create_object<app::Counter>("ctr", props, nodes);
  c.settle();

  const sim::NodeId client = static_cast<sim::NodeId>(replicas);
  rep::GroupRef ctr = c.domain.ref(client, "ctr");
  for (int i = 0; i < 5; ++i) ctr.call<std::int64_t>("incr", std::int64_t{1});

  const std::uint64_t visits0 =
      c.fabric.node(client).stats().token_visits.value();
  const sim::Time start = c.sim.now();
  AllocWindow aw;

  // Closed loop: top the pipeline up to `outstanding`, reap completions in
  // order (one client, total order: the oldest invocation finishes first).
  struct InFlight {
    rep::TypedInvocation<std::int64_t> inv;
    sim::Time issued = 0;
  };
  std::deque<InFlight> inflight;
  int issued = 0;
  int done = 0;
  double latency_sum = 0;
  auto refill = [&] {
    while (issued < total_ops &&
           inflight.size() < static_cast<std::size_t>(outstanding)) {
      try {
        inflight.push_back(
            {ctr.invoke<std::int64_t>("incr", std::int64_t{1}), c.sim.now()});
        ++issued;
      } catch (const orb::SystemException&) {
        break;  // TRANSIENT: send-queue backpressure — retry after a step
      }
    }
  };
  refill();
  const sim::Time deadline = start + 600 * sim::kSecond;
  while (done < total_ops && c.sim.now() < deadline) {
    if (!inflight.empty() && inflight.front().inv.ready()) {
      latency_sum +=
          static_cast<double>(c.sim.now() - inflight.front().issued);
      inflight.front().inv.get();
      inflight.pop_front();
      ++done;
      refill();
    } else {
      c.sim.step();
    }
  }

  const std::uint64_t visits1 =
      c.fabric.node(client).stats().token_visits.value();
  std::uint64_t batch_frames = 0;
  for (std::size_t n = 0; n < c.fabric.size(); ++n) {
    const auto id = static_cast<totem::NodeId>(n);
    batch_frames += c.fabric.node(id).stats().batch_frames.value();
  }
  const double elapsed_s =
      static_cast<double>(c.sim.now() - start) / sim::kSecond;
  Point p;
  p.ops_per_sec = done / elapsed_s;
  p.rotations_per_op = static_cast<double>(visits1 - visits0) / done;
  p.latency_us = latency_sum / done;
  p.batch_frames = batch_frames;
  p.allocs_per_op = aw.per_op(static_cast<std::uint64_t>(done));
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int ops = smoke ? 60 : 400;

  banner("E11", "pipelined invocation throughput & token-visit batching");

  // Sweep 1: outstanding invocations × replication degree, batching on.
  std::vector<int> ks = smoke ? std::vector<int>{1, 8}
                              : std::vector<int>{1, 2, 4, 8, 16, 32};
  std::vector<std::size_t> degrees =
      smoke ? std::vector<std::size_t>{3} : std::vector<std::size_t>{3, 5};
  double blocking_ops = 0;
  double pipelined8_ops = 0;
  std::vector<double> allocs_per_op;
  Table sweep({"outstanding", "replicas", "ops/s", "rotations/op",
               "mean latency (us)", "allocs/op"});
  for (std::size_t r : degrees) {
    for (int k : ks) {
      const Point p = measure(r, k, /*max_batch=*/8, ops);
      if (r == 3 && k == 1) blocking_ops = p.ops_per_sec;
      if (r == 3 && k == 8) pipelined8_ops = p.ops_per_sec;
      allocs_per_op.push_back(p.allocs_per_op);
      sweep.row({std::to_string(k), std::to_string(r), fmt(p.ops_per_sec, 0),
                 fmt(p.rotations_per_op, 2), fmt(p.latency_us, 0),
                 fmt(p.allocs_per_op, 0)});
    }
  }
  sweep.print();

  // Sweep 2: batching ablation at fixed pipeline depth, deep enough that
  // the frame budget binds. Without batching the 4-frame window admits 4
  // ops per rotation; with it, one Batch frame carries up to max_batch
  // envelopes.
  const int deep = smoke ? 8 : 32;
  std::printf("\nbatching ablation (%d outstanding, 3 replicas):\n\n", deep);
  Table ab({"max_batch", "ops/s", "rotations/op", "batch frames",
            "allocs/op"});
  for (std::uint32_t mb : {1u, 8u}) {
    const Point p = measure(3, deep, mb, ops);
    allocs_per_op.push_back(p.allocs_per_op);
    ab.row({std::to_string(mb), fmt(p.ops_per_sec, 0),
            fmt(p.rotations_per_op, 2), fmt_u(p.batch_frames),
            fmt(p.allocs_per_op, 0)});
  }
  ab.print();

  std::printf("\npipelining speedup at 3 replicas: %.2fx (8 outstanding vs "
              "blocking)\n",
              pipelined8_ops / blocking_ops);
  std::printf("shape check: ops/s grows with outstanding until the token "
              "window saturates; batching cuts rotations/op at equal "
              "depth.\n");
  if (pipelined8_ops < 2 * blocking_ops) {
    std::printf("WARNING: pipelining speedup below the 2x acceptance "
                "threshold\n");
    return 1;
  }
  // Observed after the last FtCluster (whose ctor wiped the registry) so the
  // figure survives into BENCH_throughput.json with the totem/rep metrics.
  auto& apo = obs::Registry::global().summary("bench.allocs_per_op");
  for (double v : allocs_per_op) apo.observe(v);
  obs_report("throughput");
  return enforce_alloc_budget(alloc_budget(argc, argv), allocs_per_op);
}
