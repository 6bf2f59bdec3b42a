#include <cstdio>

#include "bench.hpp"
#include "obs/obs.hpp"

namespace perfbench {

namespace {

const char* span_name(SpanKind k) {
  static constexpr const char* kNames[kSpanKinds] = {
      "step", "receive", "invoke", "recover_node",
      "recover_domain", "sync_all", "converge", "loop"};
  return kNames[static_cast<std::size_t>(k)];
}

}  // namespace

bool Spans::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("kind,parent,start_ns,end_ns\n", f);
  for (const Record& r : records_) {
    std::fprintf(f, "%s,%u,%llu,%llu\n", span_name(r.kind), r.parent,
                 static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns));
  }
  return std::fclose(f) == 0;
}

Spans::Totals operator-(const Spans::Totals& a, const Spans::Totals& b) {
  Spans::Totals d{};
  for (std::size_t i = 0; i < kSpanKinds; ++i) {
    d[i].count = a[i].count - b[i].count;
    d[i].incl_ns = a[i].incl_ns - b[i].incl_ns;
    d[i].self_ns = a[i].self_ns - b[i].self_ns;
  }
  return d;
}

Counts operator-(const Counts& a, const Counts& b) {
  Counts d = a;
  for (const auto& [k, v] : b) d[k] -= v;
  return d;
}

Counts read_counts(sim::Network& net, std::size_t nodes) {
  obs::Registry& reg = obs::Registry::global();
  Counts c;
  for (const char* name :
       {"sim.events_fired", "sim.timers_scheduled", "rm.replicas_spawned"}) {
    c[name] = static_cast<double>(reg.counter(name).value());
  }
  static const std::vector<std::pair<const char*, std::vector<const char*>>>
      kPerNode = {
          {"totem",
           {"broadcasts", "delivered", "retransmissions", "token_visits",
            "token_losses", "views_installed", "batch_frames"}},
          {"engine",
           {"invocations_executed", "duplicate_invocations_dropped",
            "duplicate_replies_resent", "sends_suppressed",
            "responses_suppressed", "state_updates_applied",
            "snapshots_served", "snapshots_applied", "failovers"}},
          {"dur",
           {"journal_appends", "journal_bytes", "journal_syncs",
            "checkpoints_cut", "compacted_bytes", "records_replayed"}},
      };
  for (const auto& [layer, metrics] : kPerNode) {
    for (const char* metric : metrics) {
      double sum = 0;
      for (std::size_t n = 0; n < nodes; ++n) {
        sum += static_cast<double>(
            reg.counter(obs::node_metric(layer, metric,
                                         static_cast<std::uint32_t>(n)))
                .value());
      }
      c[std::string(layer) + "." + metric] = sum;
    }
  }
  const sim::NetStats& ns = net.stats();
  c["net.datagrams_sent"] =
      static_cast<double>(ns.unicasts_sent + ns.multicasts_sent);
  c["net.datagrams_delivered"] = static_cast<double>(ns.datagrams_delivered);
  c["net.bytes_sent"] = static_cast<double>(ns.bytes_sent);
  c["allocs"] = static_cast<double>(alloc_count());
  return c;
}

namespace {

/// Each cluster is a fresh experiment: zero the process-wide telemetry the
/// previous repetition left behind, with the program's default switches
/// (op tracer and flight recorder off, event journal on) whatever the
/// environment says. Returns `nodes`, so it can run in the cluster's first
/// member initializer, before any component registers its metrics.
std::size_t fresh_telemetry(std::size_t nodes) {
  obs::Tracer::global().enable(false);
  obs::FlightRecorder::global().enable(false);
  obs::Journal::global().enable(true);
  obs::Registry::global().reset();
  obs::Tracer::global().clear();
  obs::Journal::global().clear();
  obs::FlightRecorder::global().clear();
  return nodes;
}

}  // namespace

Cluster::Cluster(std::size_t n, std::uint64_t seed, bool durable,
                 Spans& spans_in, const sim::DiskFarm* disks)
    : nodes(fresh_telemetry(n)),
      spans(spans_in),
      sim(seed),
      net(sim, n),
      fabric(sim, net),
      domain(fabric),
      rm(domain, notifier) {
  if (durable) {
    if (disks != nullptr) {
      farm.emplace(*disks);
    } else {
      farm.emplace(n);
    }
    plane.emplace(domain, *farm);
    rm.set_durability_plane(&*plane);
    plane->attach_all();
  }
  if (spans.on()) {
    // The traced run re-installs each node's network handler exactly as
    // Fabric wires it, with a span around the protocol entry point.
    for (std::size_t i = 0; i < n; ++i) {
      net.set_handler(static_cast<sim::NodeId>(i),
                      [node = &fabric.node(static_cast<totem::NodeId>(i)),
                       sp = &spans](sim::NodeId from, const sim::Frame& data) {
                        Span s(*sp, SpanKind::Receive);
                        node->on_receive(from, data);
                      });
    }
  }
  if (disks != nullptr) return;
  fabric.start_all();
  {
    Span s(spans, SpanKind::Converge);
    fabric.run_until_converged(2 * sim::kSecond);
  }
  sim.run_for(300 * sim::kMillisecond);
}

}  // namespace perfbench
