// Online summary statistics for the benchmark harnesses.
//
// The figure benches report min / mean / percentiles of simulated latencies;
// Summary collects samples and computes those on demand.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace eternal::util {

class Summary {
 public:
  void add(double v);
  /// Drop all samples *and* release the backing storage — a cleared Summary
  /// reused across long bench sweeps must not pin the largest run's memory.
  void clear() {
    std::vector<double>().swap(samples_);
    sorted_ = true;
  }

  std::size_t count() const noexcept { return samples_.size(); }
  std::size_t capacity() const noexcept { return samples_.capacity(); }
  bool empty() const noexcept { return samples_.empty(); }
  double min() const;
  double max() const;
  double mean() const;
  /// p in [0,100]; nearest-rank percentile.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  /// "n=100 min=1.2 mean=3.4 p50=3.1 p99=9.9 max=12.0"
  std::string describe() const;

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace eternal::util
