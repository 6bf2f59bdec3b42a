#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace eternal::util {

void Summary::add(double v) {
  samples_.push_back(v);
  sorted_ = false;
}

void Summary::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Summary::min() const {
  if (samples_.empty()) throw std::logic_error("Summary::min on empty");
  ensure_sorted();
  return samples_.front();
}

double Summary::max() const {
  if (samples_.empty()) throw std::logic_error("Summary::max on empty");
  ensure_sorted();
  return samples_.back();
}

double Summary::mean() const {
  if (samples_.empty()) throw std::logic_error("Summary::mean on empty");
  double sum = 0;
  for (double v : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

double Summary::percentile(double p) const {
  if (samples_.empty()) throw std::logic_error("Summary::percentile on empty");
  ensure_sorted();
  if (p <= 0) return samples_.front();
  if (p >= 100) return samples_.back();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
  return samples_[std::min(rank == 0 ? 0 : rank - 1, samples_.size() - 1)];
}

std::string Summary::describe() const {
  std::ostringstream os;
  if (empty()) {
    return "n=0 (no samples)";
  }
  os << "n=" << count() << " min=" << min() << " mean=" << mean()
     << " p50=" << median() << " p99=" << percentile(99) << " max=" << max();
  return os.str();
}

}  // namespace eternal::util
