#include "stream/session.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "data/preprocess.hpp"

namespace saga::stream {

namespace {

// The rates are checked by data::decimation_factor, the gap tolerance by
// gap_limit_us.
SessionConfig checked(const SessionConfig& config) {
  if (config.window_length <= 0) {
    throw std::invalid_argument("Session: window_length must be positive");
  }
  if (config.hop < 1 || config.hop > config.window_length) {
    throw std::invalid_argument(
        "Session: hop must be in [1, window_length] (overlapping or "
        "tumbling windows)");
  }
  return config;
}

// a * b for the positive sizes below; a product past int64 fails the range
// check instead of overflowing.
std::int64_t checked_product(std::int64_t a, std::int64_t b, const char* what) {
  if (a > std::numeric_limits<std::int64_t>::max() / b) {
    throw std::invalid_argument(std::string("Session: ") + what +
                                " overflows int64 (window_length or rate too "
                                "large)");
  }
  return a * b;
}

// gap_tolerance source periods in microseconds, rounded up. Zero, negative,
// NaN and infinite tolerances fail the range check, as does a limit past the
// int64 clock (a tiny rate or a huge tolerance), whose conversion would be
// undefined.
std::int64_t gap_limit_us(const SessionConfig& config) {
  const double limit =
      std::ceil(config.gap_tolerance * 1e6 / config.source_rate_hz);
  if (!(limit > 0.0 &&
        limit < static_cast<double>(std::numeric_limits<std::int64_t>::max()))) {
    throw std::invalid_argument(
        "Session: gap_tolerance must be positive and finite, and at most "
        "2^63 us at the source rate");
  }
  return static_cast<std::int64_t>(limit);
}

// The length of the gap-free prefix of `run`: the samples before the first
// one more than `limit` after its predecessor (`prev` for run[0]). On
// return `prev` holds the prefix's last timestamp, unchanged if it is
// empty. Blocks of eight go by with their eight comparisons folded into one
// test, so a gap-free block takes no branch per sample; the block that holds
// a gap, and the last few samples, go one at a time to find where it is.
std::size_t gap_free_prefix(std::span<const std::int64_t> run,
                            std::int64_t& prev, std::int64_t limit) noexcept {
  constexpr std::size_t kBlock = 8;
  const std::int64_t* const ts = run.data();
  const std::size_t n = run.size();
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    bool gap = ts[i] - prev > limit;
    for (std::size_t k = 1; k < kBlock; ++k) {
      gap |= ts[i + k] - ts[i + k - 1] > limit;
    }
    if (gap) break;
    prev = ts[i + kBlock - 1];
  }
  for (; i < n && ts[i] - prev <= limit; ++i) prev = ts[i];
  return i;
}

}  // namespace

Session::Session(std::string id, const SessionConfig& config)
    : id_(std::move(id)),
      config_(checked(config)),
      factor_(data::decimation_factor(config.source_rate_hz, config.target_hz)),
      // hop <= window_length, so the raw hop fits whenever the raw window
      // does; the ring rejects a capacity above SpscRing::kMaxCapacity
      // before it allocates.
      raw_window_(checked_product(config.window_length, factor_, "raw window")),
      raw_hop_(config.hop * factor_),
      gap_limit_us_(gap_limit_us(config)),
      ring_(config.ring_capacity != 0
                ? config.ring_capacity
                : static_cast<std::size_t>(
                      checked_product(4, raw_window_, "ring capacity"))) {
  if (ring_.capacity() < static_cast<std::size_t>(raw_window_)) {
    throw std::invalid_argument(
        "Session: ring_capacity " + std::to_string(config.ring_capacity) +
        " cannot hold one raw window of " + std::to_string(raw_window_) +
        " samples (window_length x decimation factor " +
        std::to_string(factor_) + ")");
  }
}

std::vector<SealedWindow> Session::poll() {
  std::vector<SealedWindow> sealed;
  // One snapshot of every unconsumed sample, in place: positions count from
  // the read index at entry, `begin` is where the window under assembly
  // starts, and the ring is released up to it once, on the way out.
  const std::size_t available = ring_.size();
  const RingSlots pending = ring_.peek(0, available);
  const auto window_size = static_cast<std::size_t>(raw_window_);
  const auto hop = static_cast<std::size_t>(raw_hop_);
  constexpr auto kRow = static_cast<std::size_t>(kStreamChannels);
  std::size_t begin = 0;
  std::size_t pos = scan_;
  // The stream's first sample has no predecessor; compared with itself it
  // passes every (positive) gap limit.
  if (pos < available && !have_prev_ts_) {
    prev_ts_ = pending.ts[pos];
    have_prev_ts_ = true;
  }
  std::int64_t prev_ts = prev_ts_;
  while (pos < available) {
    // Gap-check one contiguous run of timestamps, up to the sample that
    // completes the window, the newest sample or the end of the column.
    const std::span<const std::int64_t> run =
        pending.ts
            .subspan(pos, std::min(available, begin + window_size) - pos)
            .first;
    const std::size_t clean = gap_free_prefix(run, prev_ts, gap_limit_us_);
    pos += clean;
    if (clean != run.size()) {
      // Gap: the samples before it can never complete a window that the
      // post-gap samples may join — discard the partial window and restart
      // assembly at the post-gap sample.
      count(gaps_);
      begin = pos;
      prev_ts = run[clean];
      ++pos;
    }
    if (pos - begin == window_size) {
      // Window complete: the first (and only) copy of these samples, as at
      // most two range copies out of the value column.
      SealedWindow window;
      window.seq = next_seq_++;
      window.start_ts_us = pending.ts[begin];
      window.end_ts_us = prev_ts;
      const RingSpans<float> rows =
          pending.values.subspan(begin * kRow, window_size * kRow);
      window.raw.reserve(window_size * kRow);
      window.raw.insert(window.raw.end(), rows.first.begin(),
                        rows.first.end());
      window.raw.insert(window.raw.end(), rows.second.begin(),
                        rows.second.end());
      sealed.push_back(std::move(window));
      count(windows_sealed_);
      // Advance one hop; the window-minus-hop overlap stays in the ring
      // (uncopied) as the head of the next window.
      begin += hop;
    }
  }
  ring_.pop(begin);
  scan_ = pos - begin;
  prev_ts_ = prev_ts;
  return sealed;
}

SessionStats Session::stats() const noexcept {
  SessionStats stats;
  stats.samples_accepted = ring_.pushed();
  stats.samples_dropped = samples_dropped_.load(std::memory_order_relaxed);
  stats.out_of_order = out_of_order_.load(std::memory_order_relaxed);
  stats.gaps = gaps_.load(std::memory_order_relaxed);
  stats.windows_sealed = windows_sealed_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace saga::stream
