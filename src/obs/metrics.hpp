// Metrics registry: named counters and log-scale percentile summaries.
//
// The registry is the only home for per-layer statistics: a component takes
// stable handles to its counters at construction (engine, totem node, fault
// detector, durability, replication manager, simulator) and the hot path
// increments them with a single relaxed atomic add — no lookup, no lock.
// Readers (tests, benches, the soak runner) read the same handles through
// the owner's `stats()` or look a counter up by name. Registration takes a
// mutex; it happens at component construction, never per message. Snapshots
// export every metric as plaintext or JSON so benches and tools can diff
// whole-system behaviour between runs.
//
// Naming convention: `<layer>.<metric>{<label>=<value>}`, e.g.
// `engine.invocations_executed{node=3}`. Owners take their counters through
// `fresh_counter`, which zeroes them, so sequential simulations in one
// process (tests, bench sweeps) each start from zero.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace eternal::obs {

class Counter {
 public:
  void inc(std::uint64_t d = 1) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Percentile summary over a fixed-bucket log-scale histogram. Values land
/// in geometric buckets growing by 2^(1/8) per bucket (~4.4% worst-case
/// relative error at the geometric midpoint); 512 buckets span [1, 2^64),
/// so any simulated-microsecond latency fits without configuration. Exact
/// min/max are tracked separately and clamp the quantile estimates, making
/// p0/p100 exact. Observation is lock-free (relaxed atomics), like
/// Counter.
class Summary {
 public:
  static constexpr std::size_t kBuckets = 512;
  static constexpr std::size_t kBucketsPerOctave = 8;  // growth 2^(1/8)

  Summary();

  void observe(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  double min() const noexcept;  // 0 when empty
  double max() const noexcept;  // 0 when empty

  /// q in [0, 1]; nearest-rank over the log-scale buckets, clamped to the
  /// exact observed [min, max]. Returns 0 when empty.
  double quantile(double q) const noexcept;
  double p50() const noexcept { return quantile(0.50); }
  double p90() const noexcept { return quantile(0.90); }
  double p99() const noexcept { return quantile(0.99); }
  double p999() const noexcept { return quantile(0.999); }

  /// "count=N mean=M p50=.. p90=.. p99=.. p999=.. max=.."
  std::string describe() const;

  void reset() noexcept;

 private:
  static std::size_t bucket_of(double v) noexcept;
  static double bucket_mid(std::size_t i) noexcept;

  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

class Registry {
 public:
  /// Find-or-create. Returned references stay valid for the registry's
  /// lifetime (metrics are never deregistered).
  Counter& counter(const std::string& name);
  Summary& summary(const std::string& name);

  /// Zero every metric, keeping registrations (and handles) intact.
  void reset();

  /// One `name value` line per counter, then one `name count=N mean=M
  /// p50=.. ... max=..` line per summary, each sorted by name.
  std::string to_text() const;
  /// {"counters":{...},"summaries":{...}}
  std::string to_json() const;

  /// The process-wide default registry all layers register into.
  static Registry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Summary>> summaries_;
};

/// `layer.metric{node=<id>}` — the registry naming convention for
/// per-processor metrics.
std::string node_metric(const char* layer, const char* metric,
                        std::uint32_t node);

/// Find-or-create `name` in the global registry and zero it: the one way a
/// component takes its counter handles at construction, so each simulated
/// cluster counts from zero. The second form names a per-processor counter
/// (`node_metric(layer, metric, node)`).
Counter& fresh_counter(const std::string& name);
Counter& fresh_counter(const char* layer, const char* metric,
                       std::uint32_t node);

}  // namespace eternal::obs
