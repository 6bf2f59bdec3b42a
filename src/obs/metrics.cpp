// detlint:allow(static-local) — process-wide observability singleton
// (Meyers `global()`), shared diagnostics, not replica state.
#include "obs/metrics.hpp"

#include <cmath>
#include <sstream>

namespace eternal::obs {

Summary::Summary() : counts_(kBuckets) {}

std::size_t Summary::bucket_of(double v) noexcept {
  if (!(v > 1.0)) return 0;  // also catches NaN
  // bucket = floor(log2(v) * kBucketsPerOctave); 512 buckets cover 2^64.
  const double idx =
      std::floor(std::log2(v) * static_cast<double>(kBucketsPerOctave));
  if (idx >= static_cast<double>(kBuckets - 1)) return kBuckets - 1;
  return static_cast<std::size_t>(idx);
}

double Summary::bucket_mid(std::size_t i) noexcept {
  // Geometric midpoint of [2^(i/8), 2^((i+1)/8)).
  const double exp = (static_cast<double>(i) + 0.5) /
                     static_cast<double>(kBucketsPerOctave);
  return std::exp2(exp);
}

void Summary::observe(double v) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  // First observation seeds min/max; later ones CAS toward the extremes.
  if (count_.load(std::memory_order_relaxed) == 1) {
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  } else {
    double mn = min_.load(std::memory_order_relaxed);
    while (v < mn &&
           !min_.compare_exchange_weak(mn, v, std::memory_order_relaxed)) {
    }
    double mx = max_.load(std::memory_order_relaxed);
    while (v > mx &&
           !max_.compare_exchange_weak(mx, v, std::memory_order_relaxed)) {
    }
  }
  counts_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
}

double Summary::min() const noexcept {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Summary::max() const noexcept {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Summary::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (q <= 0.0) return min();
  if (q >= 1.0) return max();
  // Nearest-rank: the smallest bucket whose cumulative count reaches rank.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += counts_[i].load(std::memory_order_relaxed);
    if (cum >= rank) {
      const double est = i == 0 ? 1.0 : bucket_mid(i);
      return std::min(std::max(est, min()), max());
    }
  }
  return max();
}

std::string Summary::describe() const {
  std::ostringstream os;
  os << "count=" << count() << " mean=" << mean() << " p50=" << p50()
     << " p90=" << p90() << " p99=" << p99() << " p999=" << p999()
     << " max=" << max();
  return os.str();
}

void Summary::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Summary& Registry::summary(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = summaries_[name];
  if (!slot) slot = std::make_unique<Summary>();
  return *slot;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, s] : summaries_) s->reset();
}

std::string Registry::to_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << name << ' ' << c->value() << '\n';
  }
  for (const auto& [name, s] : summaries_) {
    os << name << ' ' << s->describe() << '\n';
  }
  return os.str();
}

namespace {
void json_key(std::ostringstream& os, const std::string& name, bool& first) {
  if (!first) os << ',';
  first = false;
  os << '"';
  for (char ch : name) {
    if (ch == '"' || ch == '\\') os << '\\';
    os << ch;
  }
  os << "\":";
}
}  // namespace

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    json_key(os, name, first);
    os << c->value();
  }
  os << "},\"summaries\":{";
  first = true;
  for (const auto& [name, s] : summaries_) {
    json_key(os, name, first);
    os << "{\"count\":" << s->count() << ",\"mean\":" << s->mean()
       << ",\"min\":" << s->min() << ",\"p50\":" << s->p50()
       << ",\"p90\":" << s->p90() << ",\"p99\":" << s->p99()
       << ",\"p999\":" << s->p999() << ",\"max\":" << s->max() << "}";
  }
  os << "}}";
  return os.str();
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

std::string node_metric(const char* layer, const char* metric,
                        std::uint32_t node) {
  std::string out(layer);
  out += '.';
  out += metric;
  out += "{node=";
  out += std::to_string(node);
  out += '}';
  return out;
}

Counter& fresh_counter(const std::string& name) {
  Counter& c = Registry::global().counter(name);
  c.reset();
  return c;
}

Counter& fresh_counter(const char* layer, const char* metric,
                       std::uint32_t node) {
  return fresh_counter(node_metric(layer, metric, node));
}

}  // namespace eternal::obs
