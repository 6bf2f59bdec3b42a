// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// Repeats the workload on a fresh simulated cluster (same seed, so the
// same inputs) until --seconds of wall time have passed, at least five
// times. With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced repetitions and prints the per-layer
// metrics. Wall-clock figures come from the fastest repetition; simulated
// time and counts must repeat exactly, which the run checks. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. The exit code is 0 when every
// check passed and 1 when one failed (the JSON line is printed either way).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double per(double num, double den) { return den > 0 ? num / den : 0; }

/// The wall-clock figure of a run: the fastest repetition. Interference
/// from other processes on a shared machine only ever adds time, and it
/// comes in bursts that can cover most of a run, so the minimum is the
/// steady estimate of what the program itself costs.
template <typename F>
double fastest(const std::vector<Rep>& reps, F f) {
  double best = f(reps.front());
  for (const Rep& r : reps) best = std::min(best, f(r));
  return best;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Everything that must repeat exactly for one seed: simulated time,
/// counts and the client-observed outcomes. Empty when `a` matches `b`.
std::string determinism_diff(const Rep& a, const Rep& b) {
  if (a.attempted != b.attempted || a.completed != b.completed ||
      a.failed != b.failed) {
    return "operation counts";
  }
  if (a.latency_us != b.latency_us) return "simulated latencies";
  if (a.window_sim_s != b.window_sim_s) return "simulated window";
  if (a.unavailable_ms != b.unavailable_ms) return "unavailable_ms";
  if (a.recovery_sim_ms != b.recovery_sim_ms) return "recovery_sim_ms";
  if (a.extra != b.extra) return "workload statistics";
  for (Counts Rep::*counts : {&Rep::window, &Rep::run}) {
    for (const auto& [k, v] : a.*counts) {
      if (k != "allocs" && (b.*counts).at(k) != v) return "counter " + k;
    }
  }
  return {};
}

std::vector<Metric> end_to_end(const std::vector<Rep>& reps, double rss_mb) {
  const Rep& last = reps.back();
  const double ops = static_cast<double>(last.completed);
  return {
      {"ops_per_wall_s",
       per(ops, fastest(reps, [](const Rep& r) { return r.window_wall_s; })),
       "1/s"},
      {"sim_ops_per_s", per(ops, last.window_sim_s), "1/s"},
      {"sim_latency_p50_us", percentile(last.latency_us, 0.50), "us"},
      {"sim_latency_p999_us", percentile(last.latency_us, 0.999), "us"},
      {"completed_frac", per(ops, static_cast<double>(last.attempted)),
       "frac"},
      {"allocs_per_op", per(static_cast<double>(last.window_allocs), ops),
       "1/op"},
      {"setup_s", fastest(reps, [](const Rep& r) { return r.setup_s; }),
       "s"},
      {"peak_rss_mb", rss_mb, "MiB"},
      {"unavailable_ms", last.unavailable_ms, "ms"},
      {"recovery_wall_ms",
       fastest(reps, [](const Rep& r) { return 1e3 * r.recovery_wall_s; }),
       "ms"},
      {"recovery_sim_ms", last.recovery_sim_ms, "ms"},
  };
}

const Spans::Total& span(const Spans::Totals& t, SpanKind k) {
  return t[static_cast<std::size_t>(k)];
}

/// Unaccounted share of the traced window: loop wall time not inside any
/// top-level span (sim step or benchmark loop bookkeeping). Every other
/// span nests inside those two, so sim self + receive + invoke + loop
/// self + residual = window wall time.
double residual_frac(const Rep& r) {
  const auto& w = r.window_spans;
  const double wall_ns = r.window_wall_s * 1e9;
  const double spanned = static_cast<double>(
      span(w, SpanKind::Step).incl_ns + span(w, SpanKind::Loop).incl_ns);
  return per(wall_ns - spanned, wall_ns);
}

const Rep& fastest_rep(const std::vector<Rep>& reps) {
  return *std::min_element(reps.begin(), reps.end(),
                           [](const Rep& a, const Rep& b) {
                             return a.window_wall_s < b.window_wall_s;
                           });
}

/// Per-layer figures of the fastest traced repetition (its counts equal
/// every other repetition's; its spans reconcile with its own wall time).
std::vector<Metric> per_layer(const Rep& r, const Rep& untraced,
                              const std::map<std::string, double>& codecs) {
  const double ops = static_cast<double>(r.completed);
  const Counts& w = r.window;
  const Counts& run = r.run;
  auto c = [](const Counts& m, const char* k) { return m.at(k); };
  auto per_op = [&](const char* k) { return per(c(w, k), ops); };
  // Figures only some workloads produce (durability, stale replies).
  auto extra = [&](const char* k) {
    const auto it = r.extra.find(k);
    return it == r.extra.end() ? 0.0 : it->second;
  };
  auto us_per_op = [&](SpanKind k) {
    return per(1e-3 * static_cast<double>(span(r.window_spans, k).incl_ns),
               ops);
  };
  auto ms_in = [](const Spans::Totals& t, SpanKind k) {
    return 1e-6 * static_cast<double>(span(t, k).incl_ns);
  };
  const Spans::Total& step = span(r.window_spans, SpanKind::Step);
  const Spans::Total& node = span(r.run_spans, SpanKind::RecoverNode);
  std::vector<Metric> m = {
      {"sim.events_per_op", per_op("sim.events_fired"), "1/op"},
      {"sim.timers_per_op", per_op("sim.timers_scheduled"), "1/op"},
      {"sim.timer_fire_ratio",
       per(c(w, "sim.events_fired"), c(w, "sim.timers_scheduled")), "ratio"},
      {"sim.self_us_per_op",
       per(1e-3 * static_cast<double>(step.self_ns), ops), "us"},
      {"sim.ns_per_event",
       per(static_cast<double>(step.incl_ns), static_cast<double>(step.count)),
       "ns"},
      {"net.datagrams_per_op", per_op("net.datagrams_sent"), "1/op"},
      {"net.bytes_per_op", per_op("net.bytes_sent"), "B/op"},
      {"totem.recv_us_per_op", us_per_op(SpanKind::Receive), "us"},
      {"totem.recv_calls_per_op",
       per(static_cast<double>(span(r.window_spans, SpanKind::Receive).count),
           ops),
       "1/op"},
      {"totem.token_visits_per_op", per_op("totem.token_visits"), "1/op"},
      {"totem.broadcasts_per_op", per_op("totem.broadcasts"), "1/op"},
      {"totem.batch_frames_per_op", per_op("totem.batch_frames"), "1/op"},
      {"totem.retransmissions_per_op", per_op("totem.retransmissions"),
       "1/op"},
      {"totem.views_installed", c(run, "totem.views_installed"), "count"},
      {"totem.token_losses", c(run, "totem.token_losses"), "count"},
      {"rep.invoke_us_per_op", us_per_op(SpanKind::Invoke), "us"},
      {"rep.executions_per_op", per_op("engine.invocations_executed"),
       "1/op"},
      {"rep.state_updates_per_op", per_op("engine.state_updates_applied"),
       "1/op"},
      {"rep.duplicates_dropped_per_op",
       per(c(w, "engine.duplicate_invocations_dropped") +
               c(w, "engine.duplicate_replies_resent"),
           ops),
       "1/op"},
      {"rep.sends_suppressed_per_op",
       per(c(w, "engine.sends_suppressed") +
               c(w, "engine.responses_suppressed"),
           ops),
       "1/op"},
      {"rep.failovers", c(run, "engine.failovers"), "count"},
      {"rep.snapshots_applied", c(run, "engine.snapshots_applied"), "count"},
      {"rep.stale_replies", extra("rep.stale_replies"), "count"},
      {"rep.stale_replicas", extra("rep.stale_replicas"), "count"},
  };
  for (const auto& [name, ns] : codecs) m.push_back({name, ns, "ns"});
  const std::vector<Metric> rest = {
      {"dur.appends_per_op", per_op("dur.journal_appends"), "1/op"},
      {"dur.journal_bytes_per_op", per_op("dur.journal_bytes"), "B/op"},
      {"dur.syncs_per_sim_s", per(c(w, "dur.journal_syncs"), r.window_sim_s),
       "1/s"},
      {"dur.checkpoints_per_op", per_op("dur.checkpoints_cut"), "1/op"},
      {"dur.compacted_bytes_per_op", per_op("dur.compacted_bytes"), "B/op"},
      {"dur.checkpoint_bytes", extra("dur.checkpoint_bytes"), "B"},
      {"dur.records_replayed", extra("dur.records_replayed"), "count"},
      {"dur.checkpoints_loaded", extra("dur.checkpoints_loaded"), "count"},
      {"ft.recover_ms",
       ms_in(r.recovery_spans, SpanKind::RecoverDomain) +
           ms_in(r.recovery_spans, SpanKind::RecoverNode),
       "ms"},
      {"ft.reconverge_ms", ms_in(r.recovery_spans, SpanKind::Converge), "ms"},
      {"ft.recover_node_ms",
       1e-6 * per(static_cast<double>(node.incl_ns),
                  static_cast<double>(node.count)),
       "ms"},
      {"rm.replicas_spawned", c(run, "rm.replicas_spawned"), "count"},
      {"obs.trace_overhead_frac",
       per(r.window_wall_s, untraced.window_wall_s) - 1.0, "frac"},
      {"trace.residual_frac", residual_frac(r), "frac"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// Human-readable breakdown of one traced window, and the reconciliation.
void print_breakdown(const Rep& r) {
  const auto& w = r.window_spans;
  const double wall_ms = r.window_wall_s * 1e3;
  auto row = [&](const char* what, std::uint64_t ns) {
    std::printf("  %-28s %10.2f ms  %5.1f%%\n", what, 1e-6 * ns,
                100.0 * 1e-6 * ns / wall_ms);
  };
  std::printf("traced window breakdown (%.2f ms wall, %llu ops):\n", wall_ms,
              static_cast<unsigned long long>(r.completed));
  row("sim self (step - children)", span(w, SpanKind::Step).self_ns);
  row("totem on_receive", span(w, SpanKind::Receive).incl_ns);
  row("rep GroupRef::invoke", span(w, SpanKind::Invoke).incl_ns);
  row("benchmark loop self", span(w, SpanKind::Loop).self_ns);
  std::printf("  %-28s %10.2f ms  %5.1f%%\n", "residual (unspanned)",
              residual_frac(r) * wall_ms, 100.0 * residual_frac(r));
}

void print_json(bool correct, const Rep& r, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::puts(out.c_str());
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, spans_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      name = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(v);
    } else if (flag == "--trace") {
      trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--spans-out") {
      spans_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (name == w.name) wl = &w;
  }
  if (wl == nullptr) usage(("unknown workload '" + name + "'").c_str());

  // Traced runs alternate untraced and traced repetitions, so the tracing
  // overhead compares like with like; they end on a traced one.
  const std::size_t min_reps = trace ? 6 : 5;
  constexpr std::size_t kMaxReps = 64;
  const std::uint64_t start = wall_ns();
  Spans spans;
  std::vector<Rep> untraced, traced;
  // Peak memory of one repetition: later ones can only add what the
  // program leaks across clusters, which would tie the figure to speed.
  double rss_mb = 0;
  for (std::size_t i = 0;; ++i) {
    const bool traced_rep = trace && i % 2 == 1;
    spans.clear();
    spans.enable(traced_rep);
    Rep r = wl->run(seed, spans);
    spans.enable(false);
    if (i == 0) rss_mb = peak_rss_mb();
    std::printf("rep %zu%s: setup %.3f s, window %.3f s wall / %.3f s sim, "
                "%llu ops, recovery %.1f ms wall%s\n",
                i + 1, traced_rep ? " (traced)" : "", r.setup_s,
                r.window_wall_s, r.window_sim_s,
                static_cast<unsigned long long>(r.completed),
                1e3 * r.recovery_wall_s,
                r.violations.empty() ? "" : ", CHECK FAILED");
    (traced_rep ? traced : untraced).push_back(std::move(r));
    const double elapsed = 1e-9 * static_cast<double>(wall_ns() - start);
    if (i + 1 >= kMaxReps ||
        (i + 1 >= min_reps && elapsed >= seconds && (!trace || traced_rep))) {
      break;
    }
  }

  // Correctness: every repetition's checks, the tail-sample rule, and
  // exact repetition of everything deterministic.
  std::vector<std::string> violations;
  std::vector<const Rep*> all;
  for (const Rep& r : untraced) all.push_back(&r);
  for (const Rep& r : traced) all.push_back(&r);
  for (const Rep* r : all) {
    for (const std::string& v : r->violations) violations.push_back(v);
    const std::string diff = determinism_diff(*all.front(), *r);
    if (!diff.empty()) {
      violations.push_back("repetitions differ in " + diff);
    }
  }
  // Allocation counts repeat too, once the first repetition has filled the
  // library's pools (traced repetitions add the recorder's own).
  for (std::size_t i = 2; i < untraced.size(); ++i) {
    if (untraced[i].window_allocs != untraced[1].window_allocs) {
      violations.push_back("repetitions differ in allocations");
    }
  }
  const Rep& last = trace ? traced.back() : untraced.back();
  const std::size_t samples = last.latency_us.size();
  const auto beyond_p999 =
      samples - static_cast<std::size_t>(
                    std::ceil(0.999 * static_cast<double>(samples)));
  if (beyond_p999 < 10) {
    violations.push_back("fewer than 10 latency samples beyond p999");
  }
  std::printf("workload %s seed %llu: %zu repetitions, %zu latency samples "
              "(%zu beyond p999), %llu attempted, %llu failed\n",
              wl->name, static_cast<unsigned long long>(seed), all.size(),
              samples, beyond_p999,
              static_cast<unsigned long long>(last.attempted),
              static_cast<unsigned long long>(last.failed));
  std::printf("failed_frac %.6g frac\n",
              per(static_cast<double>(last.failed),
                  static_cast<double>(last.attempted)));

  std::vector<Metric> metrics;
  if (trace) {
    const Rep& best = fastest_rep(traced);
    metrics = per_layer(best, fastest_rep(untraced),
                        codec_roundtrips(wl->main_group));
    print_breakdown(best);
    const double residual = residual_frac(best);
    if (std::abs(residual) > 0.10) {
      violations.push_back("traced window does not reconcile: residual " +
                           std::to_string(residual));
    }
    if (!spans_out.empty() && !spans.write(spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
    }
  } else {
    metrics = end_to_end(untraced, rss_mb);
  }
  for (const Metric& m : metrics) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const std::string& v : violations) {
    std::printf("CHECK FAILED: %s\n", v.c_str());
  }
  print_json(violations.empty(), last, metrics);
  return violations.empty() ? 0 : 1;
}
