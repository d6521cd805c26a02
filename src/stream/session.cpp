#include "stream/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
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

}  // namespace

Session::Session(std::string id, const SessionConfig& config)
    : id_(std::move(id)),
      config_(checked(config)),
      factor_(data::decimation_factor(config.source_rate_hz, config.target_hz)),
      // hop <= window_length, so the raw hop fits whenever the raw window
      // does; the ring rejects a capacity its slot vector cannot hold.
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
  const RingSpans<Sample> pending = ring_.peek(0, available);
  const auto window_size = static_cast<std::size_t>(raw_window_);
  const auto hop = static_cast<std::size_t>(raw_hop_);
  std::size_t begin = 0;
  std::size_t pos = scan_;
  // The stream's first sample has no predecessor; compared with itself it
  // passes every (positive) gap limit.
  if (pos < available && !have_prev_ts_) {
    prev_ts_ = pending[pos].ts_us;
    have_prev_ts_ = true;
  }
  std::int64_t prev_ts = prev_ts_;
  while (pos < available) {
    // Gap-check one contiguous run, up to the sample that completes the
    // window, the newest sample or the end of the slot array.
    const std::span<const Sample> run =
        pending.subspan(pos, std::min(available, begin + window_size) - pos)
            .first;
    const Sample* sample = run.data();
    const Sample* const end = sample + run.size();
    for (; sample != end && sample->ts_us - prev_ts <= gap_limit_us_;
         ++sample) {
      prev_ts = sample->ts_us;
    }
    pos += static_cast<std::size_t>(sample - run.data());
    if (sample != end) {
      // Gap: the samples before it can never complete a window that the
      // post-gap samples may join — discard the partial window and restart
      // assembly at the post-gap sample.
      gaps_.fetch_add(1, std::memory_order_relaxed);
      begin = pos;
      prev_ts = sample->ts_us;
      ++pos;
    }
    if (pos - begin == window_size) {
      // Window complete: the first (and only) copy of these samples.
      SealedWindow window;
      window.seq = next_seq_++;
      window.start_ts_us = pending[begin].ts_us;
      window.end_ts_us = prev_ts;
      window.raw.resize(window_size *
                        static_cast<std::size_t>(kStreamChannels));
      float* out = window.raw.data();
      const RingSpans<Sample> samples = pending.subspan(begin, window_size);
      for (const std::span<const Sample> part :
           {samples.first, samples.second}) {
        for (const Sample& s : part) {
          std::memcpy(out, s.v.data(), sizeof(Sample::v));
          out += kStreamChannels;
        }
      }
      sealed.push_back(std::move(window));
      windows_sealed_.fetch_add(1, std::memory_order_relaxed);
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
