#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace saga::serve {

Histogram::Histogram(double min_value, double growth, std::size_t buckets) {
  if (!(min_value > 0.0)) {
    throw std::invalid_argument("Histogram: min_value must be positive");
  }
  if (!(growth > 1.0)) {
    throw std::invalid_argument("Histogram: growth must be > 1");
  }
  if (buckets < 3) {
    throw std::invalid_argument(
        "Histogram: need at least 3 buckets (underflow, one finite range, "
        "overflow)");
  }
  // edges_[i] is the exclusive upper edge of bucket i; the overflow bucket
  // (index buckets-1) has no stored edge.
  edges_.resize(buckets - 1);
  double edge = min_value;
  for (double& e : edges_) {
    e = edge;
    edge *= growth;
  }
  counts_.assign(buckets, 0);
}

Histogram Histogram::latency_ms() { return Histogram(0.1, 2.0, 20); }
Histogram Histogram::batch_sizes() { return Histogram(1.0, 2.0, 12); }
Histogram Histogram::depths() { return Histogram(1.0, 2.0, 16); }

void Histogram::record(double value) {
  if (counts_.empty()) return;  // layoutless default: drop silently
  // Negative/NaN observations clamp into the underflow bucket: a metrics
  // sink must never throw, and bucket 0 makes the bad data visible.
  if (!(value >= 0.0)) value = 0.0;
  const auto it = std::upper_bound(edges_.begin(), edges_.end(), value);
  counts_[static_cast<std::size_t>(it - edges_.begin())] += 1;
  count_ += 1;
  sum_ += value;
  max_ = std::max(max_, value);
}

void Histogram::merge(const Histogram& other) {
  if (!same_layout(other)) {
    throw std::invalid_argument("Histogram::merge: bucket layouts differ");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank (1-based): the smallest bucket whose cumulative count
  // reaches ceil(q * count), matching LoadReport::percentile_ms's
  // convention closely enough for side-by-side reading.
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) {
      // The overflow bucket has no finite upper edge; the exact max is the
      // tightest true bound we hold.
      return i < edges_.size() ? edges_[i] : max_;
    }
  }
  return max_;  // unreachable (cumulative ends at count_), keeps -Wreturn happy
}

double Histogram::bucket_lower(std::size_t i) const {
  if (i >= counts_.size()) {
    throw std::out_of_range("Histogram::bucket_lower: bucket out of range");
  }
  return i == 0 ? 0.0 : edges_[i - 1];
}

double Histogram::bucket_upper(std::size_t i) const {
  if (i >= counts_.size()) {
    throw std::out_of_range("Histogram::bucket_upper: bucket out of range");
  }
  return i < edges_.size() ? edges_[i]
                           : std::numeric_limits<double>::infinity();
}

std::string Histogram::format(const std::string& label,
                              const std::string& unit) const {
  char line[192];
  std::snprintf(line, sizeof(line),
                "%s: count %llu  mean %.2f %s  max %.2f %s\n", label.c_str(),
                static_cast<unsigned long long>(count_), mean(), unit.c_str(),
                max_, unit.c_str());
  std::string out = line;
  if (count_ == 0) return out;
  std::uint64_t largest = 0;
  for (const std::uint64_t c : counts_) largest = std::max(largest, c);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (counts_[i] == 0) continue;
    const double upper = bucket_upper(i);
    char range[48];
    if (std::isinf(upper)) {
      std::snprintf(range, sizeof(range), "[%8.2f,      inf)",
                    bucket_lower(i));
    } else {
      std::snprintf(range, sizeof(range), "[%8.2f, %8.2f)", bucket_lower(i),
                    upper);
    }
    const int bar =
        static_cast<int>(40 * counts_[i] / std::max<std::uint64_t>(1, largest));
    std::snprintf(line, sizeof(line), "  %s %8llu  %5.1f%%  %s\n", range,
                  static_cast<unsigned long long>(counts_[i]),
                  100.0 * static_cast<double>(cumulative) /
                      static_cast<double>(count_),
                  std::string(static_cast<std::size_t>(std::max(bar, 1)), '#')
                      .c_str());
    out += line;
  }
  return out;
}

double LoadReport::percentile_ms(double q) const noexcept {
  if (latencies_ms.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(latencies_ms.size()));
  return latencies_ms[std::min(index, latencies_ms.size() - 1)];
}

std::string LoadReport::latency_summary() const {
  char line[160];
  std::snprintf(line, sizeof(line),
                "p50 %.2f  p95 %.2f  p99 %.2f  p99.9 %.2f  max %.2f ms",
                percentile_ms(0.50), percentile_ms(0.95), percentile_ms(0.99),
                percentile_ms(0.999), percentile_ms(1.0));
  return line;
}

}  // namespace saga::serve
