// E10 — Microbenchmarks (google-benchmark): marshaling and identifier
// machinery costs in *wall-clock* time. These are the per-message CPU costs
// underneath every simulated metric in E1-E9.
#include <benchmark/benchmark.h>

#include <map>

#include "dur/record.hpp"
#include "ft/recovery.hpp"
#include "giop/giop.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"
#include "rep/oracle.hpp"
#include "rep/wire.hpp"
#include "totem/fabric.hpp"
#include "totem/wire.hpp"

using namespace eternal;

namespace {

void BM_CdrEncodePrimitives(benchmark::State& state) {
  for (auto _ : state) {
    cdr::Writer enc;
    for (int i = 0; i < 16; ++i) {
      enc.put_ulong(static_cast<std::uint32_t>(i));
      enc.put_ulonglong(static_cast<std::uint64_t>(i) << 32);
      enc.put_double(1.5 * i);
    }
    benchmark::DoNotOptimize(enc.written().data());
  }
}
BENCHMARK(BM_CdrEncodePrimitives);

void BM_CdrStringRoundTrip(benchmark::State& state) {
  const std::string s(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    cdr::Writer enc;
    enc.put_string(s);
    cdr::Decoder dec(enc.written());
    benchmark::DoNotOptimize(dec.get_string());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CdrStringRoundTrip)->Arg(16)->Arg(256)->Arg(4096);

void BM_GiopRequestRoundTrip(benchmark::State& state) {
  giop::RequestHeader hdr;
  hdr.request_id = 42;
  hdr.object_key = cdr::WireBuf(cdr::Bytes{'g', 'r', 'o', 'u', 'p'});
  hdr.operation = "increment";
  cdr::Bytes body(static_cast<std::size_t>(state.range(0)), 0xAB);
  cdr::Arena arena;
  for (auto _ : state) {
    cdr::Writer w(arena, body.size() + 256);
    giop::encode_request_into(w, hdr, body);
    giop::Message msg = giop::decode(w.seal());
    benchmark::DoNotOptimize(msg.request->operation.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GiopRequestRoundTrip)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EnvelopeRoundTrip(benchmark::State& state) {
  rep::Envelope env;
  env.kind = rep::Kind::Invocation;
  env.op_id = {{7, 1234}, 3};
  env.target_group = "acct.checking";
  env.reply_group = "teller";
  env.source_group = "teller";
  env.giop = cdr::WireBuf(cdr::Bytes(256, 0xCD));
  cdr::Arena arena;
  for (auto _ : state) {
    cdr::Writer w(arena, 512);
    rep::encode_envelope_into(w, env);
    rep::Envelope out = rep::decode_envelope(w.seal());
    benchmark::DoNotOptimize(out.target_group.data());
  }
}
BENCHMARK(BM_EnvelopeRoundTrip);

void BM_TotemDataRoundTrip(benchmark::State& state) {
  totem::Packet pkt;
  pkt.kind = totem::MsgKind::Data;
  pkt.data.ring = {42, 0};
  pkt.data.seq = 1234;
  pkt.data.origin = 3;
  pkt.data.group = totem::group_buf("inventory");
  pkt.data.payload = cdr::WireBuf(cdr::Bytes(512, 0xEF));
  cdr::Arena arena;
  totem::Packet out;
  for (auto _ : state) {
    cdr::Writer w(arena, 1024);
    totem::encode_packet_into(w, pkt);
    totem::decode_packet_into(out, w.seal());
    benchmark::DoNotOptimize(out.data.payload.data());
  }
}
BENCHMARK(BM_TotemDataRoundTrip);

void BM_OperationIdTableLookup(benchmark::State& state) {
  std::map<rep::OperationId, int> table;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    table[{{i / 64, i % 64}, i}] = static_cast<int>(i);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    rep::OperationId key{{i / 64, i % 64}, i};
    benchmark::DoNotOptimize(table.find(key));
    i = (i + 1) % 4096;
  }
}
BENCHMARK(BM_OperationIdTableLookup);

void BM_ObsCounterInc(benchmark::State& state) {
  obs::Counter& c =
      obs::Registry::global().counter("bench.counter_inc");
  for (auto _ : state) {
    c.inc();
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_ObsCounterInc);

// The per-message cost of tracing when it is switched off: the guard the
// engine's hot path pays on every envelope must stay a single branch.
void BM_ObsTraceDisabledGuard(benchmark::State& state) {
  obs::Tracer& t = obs::Tracer::global();
  t.enable(false);
  const obs::OpRef op{7, 1234, 3};
  std::uint64_t now = 0;
  for (auto _ : state) {
    if (t.enabled()) {
      t.record(now, 1, op, obs::SpanEvent::TotemDeliver, "never built");
    }
    benchmark::DoNotOptimize(++now);
  }
}
BENCHMARK(BM_ObsTraceDisabledGuard);

void BM_ObsTraceRecordEnabled(benchmark::State& state) {
  obs::Tracer t(8192);
  t.enable(true);
  const obs::OpRef op{7, 1234, 3};
  std::uint64_t now = 0;
  for (auto _ : state) {
    t.record(++now, 1, op, obs::SpanEvent::TotemDeliver,
             "group=inventory");
  }
  benchmark::DoNotOptimize(t.size());
}
BENCHMARK(BM_ObsTraceRecordEnabled);

// The per-operation cost of the divergence oracle when it is switched off:
// like the tracer, the engine's execution path pays a single predictable
// branch and never computes a digest.
void BM_OracleDisabledGuard(benchmark::State& state) {
  rep::DivergenceOracle oracle(0);  // interval 0 = disabled
  std::uint64_t version = 0;
  std::uint64_t armed = 0;
  for (auto _ : state) {
    ++version;
    if (oracle.enabled() && oracle.due(version)) ++armed;
    benchmark::DoNotOptimize(armed);
  }
}
BENCHMARK(BM_OracleDisabledGuard);

// The enabled-path bookkeeping: one observe() per delivered digest.
void BM_OracleObserve(benchmark::State& state) {
  rep::DivergenceOracle oracle(1);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    rep::OperationId op{{1, ++seq}, 1};
    benchmark::DoNotOptimize(
        oracle.observe("acct.checking", op, 1, 0xFEEDULL, seq));
    benchmark::DoNotOptimize(
        oracle.observe("acct.checking", op, 2, 0xFEEDULL, seq));
  }
}
BENCHMARK(BM_OracleObserve);

// Wall-clock cost of draining a batch through the ring: a burst of messages
// is multicast by one member and the simulation steps until every member has
// delivered the whole batch. Exercises the contiguous deliver-queue drain in
// the Totem node (one pass per token visit, not one pass per message).
void BM_DeliverDrain(benchmark::State& state) {
  const std::size_t nodes = 3;
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  totem::Params tp;
  sim::Simulation sim(1);
  sim::Network net(sim, nodes);
  totem::Fabric fabric(sim, net, tp);
  std::size_t delivered = 0;
  for (sim::NodeId i = 0; i < nodes; ++i) {
    fabric.group(i).subscribe(
        "g", [&](const totem::GroupMessage&) { ++delivered; });
  }
  fabric.start_all();
  fabric.run_until_converged(5 * sim::kSecond);
  const cdr::WireBuf msg(cdr::Bytes(64, 0xAB));
  for (auto _ : state) {
    delivered = 0;
    for (std::size_t i = 0; i < batch; ++i) fabric.group(0).send("g", msg);
    while (delivered < batch * nodes) sim.step();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_DeliverDrain)->Arg(16)->Arg(64);

// Wall-clock cost of the simulator's event core on a token-visit-shaped
// mix: per visit, one frame delivery (a closure the size of the network's,
// carrying a 272-byte WireBuf) is scheduled and fires, and a retransmit
// and a token-loss timer are armed and then cancelled by the next visit.
// Reports ns per scheduled event and heap allocations per event.
void BM_SimScheduleCancelStep(benchmark::State& state) {
  sim::Simulation sim(1);
  const cdr::WireBuf frame(cdr::Bytes(64, 0xAB));
  std::uint64_t sink = 0;
  sim::TimerHandle retransmit;
  sim::TimerHandle loss;
  const bench::AllocWindow allocs;
  for (auto _ : state) {
    retransmit.cancel();
    loss.cancel();
    sim.after(10, [&sink, from = sim::NodeId{0}, to = sim::NodeId{1},
                   payload = frame] { sink += payload.size() + from + to; });
    retransmit = sim.after(50, [&sink] { ++sink; });
    loss = sim.after(100, [&sink] { ++sink; });
    sim.step();
  }
  benchmark::DoNotOptimize(sink);
  const std::uint64_t events = 3 * state.iterations();
  state.counters["ns_per_event"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["allocs_per_event"] = allocs.per_op(events);
}
BENCHMARK(BM_SimScheduleCancelStep);

// The same token-visit-shaped mix with the two timers as DeadlineTimers: a
// delivery is scheduled, the retransmit and loss deadlines are re-armed,
// and the next event fires. Each re-arm lands later than the entry already
// queued, so it pushes no heap entry.
void BM_SimDeadlineRearm(benchmark::State& state) {
  sim::Simulation sim(1);
  const cdr::WireBuf frame(cdr::Bytes(64, 0xAB));
  std::uint64_t sink = 0;
  sim::DeadlineTimer retransmit(sim, [&sink] { ++sink; });
  sim::DeadlineTimer loss(sim, [&sink] { ++sink; });
  const bench::AllocWindow allocs;
  for (auto _ : state) {
    sim.after(10, [&sink, from = sim::NodeId{0}, to = sim::NodeId{1},
                   payload = frame] { sink += payload.size() + from + to; });
    retransmit.arm_after(50);
    loss.arm_after(100);
    sim.step();
  }
  benchmark::DoNotOptimize(sink);
  const std::uint64_t events = 3 * state.iterations();
  state.counters["ns_per_event"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["allocs_per_event"] = allocs.per_op(events);
}
BENCHMARK(BM_SimDeadlineRearm);

// Throughput of the durable-frame CRC-32 (slicing by 8) on a journal-record
// sized buffer and on a checkpoint-sized one.
void BM_Crc32(benchmark::State& state) {
  const cdr::Bytes data(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dur::crc32(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(256 << 10);

// Wall-clock cost of one durable checkpoint cut of a Counter group that
// retains 8k replies: the engine encodes its three tiers into the framed
// record, the store CRCs it, copies it into the simulated disk and retires
// the older version, and the journal is compacted below it. The client
// holds one operation outstanding on a group nobody hosts, so its
// watermark never passes the 8k answered ones. One operation between cuts
// (untimed, its allocations not counted) gives each cut a new version, as
// in a running group. Reports ns and heap allocations per cut.
void BM_CheckpointSave(benchmark::State& state) {
  constexpr int kEntries = 8192;
  constexpr int kWindow = 32;
  bench::FtCluster c(2, /*seed=*/1);
  sim::DiskFarm farm(2);
  dur::DurParams dp;
  dp.checkpoint_interval = 0;  // cut only when asked
  ft::DurabilityPlane plane(c.domain, farm, dp);
  c.rm.set_durability_plane(&plane);
  plane.attach_all();
  ft::Properties props;
  props.replication_style = rep::Style::Active;
  props.initial_number_replicas = 1;
  props.minimum_number_replicas = 1;
  c.rm.create_object<app::Counter>("ctr", props, {{0}});
  c.settle();
  const cdr::Bytes arg = bench::i64_arg(1);
  rep::Client& client = c.domain.client(1);
  const rep::Invocation unanswered = client.invoke("nobody", "incr", arg);
  for (int i = 0; i < kEntries; i += kWindow) {
    std::vector<rep::Invocation> window;
    for (int k = 0; k < kWindow; ++k) {
      window.push_back(client.invoke("ctr", "incr", arg));
    }
    for (auto& f : window) f.get();
  }
  rep::Engine& engine = c.domain.engine(0);
  std::uint64_t cut_allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    client.invoke("ctr", "incr", arg).get();
    const std::uint64_t before = bench::alloc_count();
    state.ResumeTiming();
    if (!engine.checkpoint_now("ctr")) {
      state.SkipWithError("checkpoint refused");
      break;
    }
    cut_allocs += bench::alloc_count() - before;
  }
  state.counters["allocs_per_cut"] =
      static_cast<double>(cut_allocs) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          state.iterations(), 1));
  state.counters["checkpoint_bytes"] =
      static_cast<double>(engine.checkpoint_sizes("ctr").total());
}
BENCHMARK(BM_CheckpointSave)->Unit(benchmark::kMicrosecond);

void BM_FtRequestContext(benchmark::State& state) {
  giop::FtRequestContext ctx;
  ctx.client_id = "client.4";
  ctx.retention_id = 77;
  ctx.expiration_time = 123456789;
  for (auto _ : state) {
    const cdr::WireBuf bytes = ctx.encode();
    benchmark::DoNotOptimize(giop::FtRequestContext::decode(bytes));
  }
}
BENCHMARK(BM_FtRequestContext);

}  // namespace

BENCHMARK_MAIN();
