// perfbench — the repository benchmark program (see perfbench/README.md).
//
// Declarations shared by the benchmark's translation units: the wall clock,
// the span recorder of the traced run, the counter probe, the simulated
// cluster every workload builds, and the per-repetition result record.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ft/recovery.hpp"
#include "ft/replication_manager.hpp"
#include "rep/domain.hpp"
#include "sim/disk.hpp"

namespace perfbench {

using namespace eternal;

/// Monotonic wall clock in nanoseconds.
inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Global operator-new calls so far (alloc_hook.cpp).
std::uint64_t alloc_count() noexcept;

/// Span kinds: one per layer boundary the traced run times from outside.
enum class SpanKind : std::uint8_t {
  Step,           // sim::Simulation::step
  Receive,        // totem::Node::on_receive (network handler)
  Invoke,         // rep::GroupRef::invoke
  RecoverNode,    // ft::ReplicationManager::recover_node (or restart+rejoin)
  RecoverDomain,  // ft::ReplicationManager::recover_domain (or restart+rejoin)
  SyncAll,        // ft::DurabilityPlane::sync_all
  Converge,       // ring reconvergence wait (Fabric::converged polling)
  Loop,           // the benchmark's own loop bookkeeping
};
inline constexpr std::size_t kSpanKinds = 8;

/// In-memory span recorder. Disabled it costs one branch per boundary.
/// Every span keeps inclusive and self time (inclusive minus the time of
/// the spans nested in it); the first kRetained spans are also kept whole
/// (kind, parent, start, end) and written out when the run ends.
class Spans {
 public:
  struct Total {
    std::uint64_t count = 0;
    std::uint64_t incl_ns = 0;
    std::uint64_t self_ns = 0;
  };
  using Totals = std::array<Total, kSpanKinds>;
  struct Record {
    std::uint32_t parent = 0;  // index+1 of the enclosing span, 0 = none
    SpanKind kind = SpanKind::Step;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };
  static constexpr std::size_t kRetained = 1 << 16;

  bool on() const noexcept { return on_; }
  void enable(bool on) noexcept { on_ = on; }

  void begin(SpanKind k) {
    if (!on_) return;
    Frame f;
    f.kind = k;
    f.record = static_cast<std::uint32_t>(records_.size());
    f.parent = stack_.empty() ? 0 : stack_.back().record + 1;
    if (records_.size() < kRetained) records_.push_back({});
    f.start = wall_ns();
    stack_.push_back(f);
  }
  void end() {
    if (!on_ || stack_.empty()) return;
    const std::uint64_t t = wall_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = t - f.start;
    Total& tot = totals_[static_cast<std::size_t>(f.kind)];
    ++tot.count;
    tot.incl_ns += dur;
    tot.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.record < records_.size()) {
      records_[f.record] = {f.parent, f.kind, f.start, t};
    }
  }

  const Totals& totals() const noexcept { return totals_; }
  /// Writes the retained spans as CSV (kind,parent,start_ns,end_ns).
  bool write(const std::string& path) const;
  void clear() {
    totals_ = {};
    records_.clear();
    stack_.clear();
  }

 private:
  struct Frame {
    SpanKind kind = SpanKind::Step;
    std::uint32_t record = 0;
    std::uint32_t parent = 0;
    std::uint64_t start = 0;
    std::uint64_t child_ns = 0;
  };
  bool on_ = false;
  Totals totals_{};
  std::vector<Frame> stack_;
  std::vector<Record> records_;
};

/// RAII span.
class Span {
 public:
  Span(Spans& s, SpanKind k) : s_(s) { s_.begin(k); }
  ~Span() { s_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& s_;
};

Spans::Totals operator-(const Spans::Totals& a, const Spans::Totals& b);

/// Named program counters: registry counters summed over nodes, NetStats
/// and the alloc hook, keyed by their registry-style names.
using Counts = std::map<std::string, double>;
Counts operator-(const Counts& a, const Counts& b);

/// The one helper every counter read goes through.
Counts read_counts(sim::Network& net, std::size_t nodes);

/// A fresh simulated cluster: simulation, network, Totem fabric, replication
/// domain and management plane, optionally with the durability plane. Given
/// `disks`, it is a cold restart instead: the durability plane opens copies
/// of those disks and no node starts until recover_domain rebuilds it.
struct Cluster {
  Cluster(std::size_t nodes, std::uint64_t seed, bool durable, Spans& spans,
          const sim::DiskFarm* disks = nullptr);

  /// Steps the simulation until the ring has reconverged and `ready`
  /// holds, or `timeout` of simulated time passes. Returns success.
  template <typename Pred>
  bool step_until(sim::Time timeout, Pred ready) {
    const sim::Time deadline = sim.now() + timeout;
    while (!(fabric.converged() && ready())) {
      if (sim.now() >= deadline || !sim.step()) return false;
    }
    return true;
  }

  std::size_t nodes;
  Spans& spans;
  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  rep::Domain domain;
  ft::FaultNotifier notifier;
  ft::ReplicationManager rm;
  std::optional<sim::DiskFarm> farm;
  std::optional<ft::DurabilityPlane> plane;
};

/// Everything one repetition of a workload measures.
struct Rep {
  // Deterministic for a given seed (simulated time and counts).
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // errored, refused (TRANSIENT) or unanswered
  std::vector<double> latency_us;  // completed window ops, simulated
  double window_sim_s = 0;
  double unavailable_ms = 0;
  double recovery_sim_ms = 0;
  std::uint64_t window_allocs = 0;
  Counts window;  // counter deltas over the measured window
  Counts run;     // counter deltas from the end of set-up to the end
  std::map<std::string, double> extra;  // workload-specific figures
  std::vector<std::string> violations;  // correctness failures
  // Wall clock.
  double setup_s = 0;
  double window_wall_s = 0;
  double recovery_wall_s = 0;
  Spans::Totals window_spans{};
  Spans::Totals recovery_spans{};
  Spans::Totals run_spans{};  // from the window's start to the end
};

using WorkloadFn = Rep (*)(std::uint64_t seed, Spans& spans);
/// One workload (BENCHMARK.json and README.md say why each exists).
struct Workload {
  const char* name;
  WorkloadFn run;
  const char* main_group;  // message shapes for the codec timings
};
const std::vector<Workload>& workloads();

/// Isolated encode+decode round trips of the workload's message shapes,
/// in nanoseconds per round trip (fastest of several batches).
std::map<std::string, double> codec_roundtrips(const std::string& group);

}  // namespace perfbench
