// serve::Histogram — fixed-bucket log-scale histograms for serving
// observability: batch latency, batch size and queue depth distributions
// (EngineStats), and per-request latency (LoadReport). Counters and EWMAs
// answer "how much / how fast on average"; SLO work needs the shape of the
// tail, which only a distribution carries.
//
// The bucket layout is FIXED at construction (a lower edge, a growth
// factor, a bucket count) and identical layouts merge element-wise — that
// is what lets Router aggregate per-shard histograms into one fleet-wide
// view without resampling. Log-scale buckets give constant relative error:
// the same layout resolves a 0.2 ms batch and a 2 s stall.
//
// Bucket semantics for layout {min, growth, n}:
//   bucket 0        [0, min)                     (the underflow bucket)
//   bucket i        [min*growth^(i-1), min*growth^i)   for 1 <= i <= n-2
//   bucket n-1      [min*growth^(n-2), +inf)     (the overflow bucket)
// Negative and non-finite values clamp into bucket 0 (they indicate a
// caller bug, but a metrics type must never throw on record).
//
// Consumes: scalar observations via record(). Produces: bucket counts,
// exact count/sum/max, estimated percentiles (bucket upper edge — biased
// high, never low, so an SLO judged against it is conservative), and a
// printable table. Not internally synchronized: Engine records under its
// own mutex and snapshots by value, like the rest of EngineStats.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace saga::serve {

class Histogram {
 public:
  /// Empty layout: record() drops everything, merge() accepts only another
  /// empty histogram. Exists so containers of Histogram are constructible;
  /// real uses go through the named layouts or the explicit constructor.
  Histogram() = default;

  /// Log-scale layout: first finite bucket starts at `min_value`, each
  /// bucket upper edge is `growth` times the previous, `buckets` total
  /// (including the underflow and overflow buckets). Throws
  /// std::invalid_argument on min_value <= 0, growth <= 1, or buckets < 3.
  Histogram(double min_value, double growth, std::size_t buckets);

  // ---- the standard serving layouts (shared so shards always merge) ----
  /// Latency in milliseconds: 0.1 ms .. ~26 s in x2 steps (20 buckets).
  static Histogram latency_ms();
  /// Batch sizes: 1 .. 1024 in x2 steps (12 buckets).
  static Histogram batch_sizes();
  /// Queue depths: 1 .. 16384 in x2 steps (16 buckets).
  static Histogram depths();

  void record(double value);
  /// Element-wise sum of `other` into this histogram. Throws
  /// std::invalid_argument when the bucket layouts differ.
  void merge(const Histogram& other);

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Largest value recorded (exact, not bucket-rounded); 0 when empty.
  double max_recorded() const noexcept { return max_; }

  /// Estimated value at quantile `q` in [0, 1] by nearest rank over the
  /// bucket counts, reported as the containing bucket's upper edge (the
  /// exact max for the overflow bucket). Returns 0 when empty. Biased
  /// high by at most one growth factor, never low.
  double percentile(double q) const noexcept;

  std::size_t buckets() const noexcept { return counts_.size(); }
  std::uint64_t bucket_count(std::size_t i) const { return counts_.at(i); }
  /// Inclusive lower edge of bucket i (0 for the underflow bucket).
  double bucket_lower(std::size_t i) const;
  /// Exclusive upper edge of bucket i (+inf for the overflow bucket).
  double bucket_upper(std::size_t i) const;

  bool same_layout(const Histogram& other) const noexcept {
    return edges_ == other.edges_;
  }

  /// Multi-line human-readable table of the non-empty buckets with
  /// cumulative percentages and a proportional bar, e.g. for
  /// bench_serve_throughput's histogram export. `label` heads the block;
  /// `unit` annotates the edges ("ms", "reqs", ...).
  std::string format(const std::string& label, const std::string& unit) const;

 private:
  /// Upper edges of buckets 0..n-2; bucket n-1 is the overflow bucket.
  std::vector<double> edges_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

}  // namespace saga::serve
