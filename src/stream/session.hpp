// stream::Session — one user's continuous IMU stream: an SPSC ring of
// timestamped 6-axis samples written by a producer thread (device driver,
// UDP receiver, CSV replayer) and cut into hop-based overlapping raw windows
// by the SessionManager's pump thread.
//
// Windowing happens *in the ring*: the consumer scans arriving samples in
// place (SpscRing::peek, at most two contiguous spans per poll) and copies
// nothing until `window_length × factor` consecutive samples are present, at
// which point one SealedWindow is copied out and the read index advances by
// `hop × factor` — so overlapping windows share their overlap through the
// ring, not through duplicated buffers. The factor is
// data::decimation_factor(source_rate_hz, target_hz): a session
// assembles windows in the *source-rate* domain so that the shared
// data::preprocess_window() entry point downsamples each sealed window to
// exactly `window_length` model samples.
//
// Robustness contract (ISSUE: tolerate out-of-order/dropped samples):
//   ring full at push        sample dropped, `samples_dropped` counted; the
//                            producer NEVER blocks.
//   non-monotonic timestamp  rejected at push, `out_of_order` counted — the
//                            ring therefore always holds strictly increasing
//                            timestamps, which is what lets windows be
//                            contiguous ring ranges.
//   timestamp gap            consumer-side: a jump > gap_tolerance × the
//                            nominal sample period discards the partial
//                            window before the gap (`gaps` counted) and
//                            restarts assembly at the post-gap sample, so a
//                            window never silently spans a sensor outage.
//
// Threading: push() from exactly one producer thread, poll() from exactly
// one consumer thread, stats() from anywhere (atomic counters and the ring's
// head index).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "stream/spsc_ring.hpp"

namespace saga::stream {

/// Fixed 6-axis channel layout (acc xyz + gyro xyz), matching the
/// Action_Detector-style `ts_us,ax,ay,az,gx,gy,gz` capture format and the
/// paper's 6-channel datasets.
inline constexpr std::int64_t kStreamChannels = 6;

/// One timestamped IMU reading.
struct Sample {
  std::int64_t ts_us = 0;
  std::array<float, kStreamChannels> v{};
};

struct SessionConfig {
  /// Model-domain window length in samples at target_hz (the artifact's
  /// window_length; paper: 120 = 6 s at 20 Hz).
  std::int64_t window_length = 120;
  /// Model-domain hop between window starts; hop < window_length gives
  /// overlapping windows, hop == window_length tumbling ones. Must be in
  /// [1, window_length].
  std::int64_t hop = 60;
  /// Producer sample rate (the device's rate) and the model's target rate.
  double source_rate_hz = 100.0;
  double target_hz = 20.0;
  /// A timestamp jump above gap_tolerance × the nominal period
  /// (1e6 / source_rate_hz µs) is a gap.
  double gap_tolerance = 2.5;
  /// Ring capacity in samples (rounded up to a power of two); 0 = auto
  /// (4 × the raw window). Must fit at least one raw window.
  std::size_t ring_capacity = 0;
};

/// One completed raw-rate window, copied out of the ring at seal time.
struct SealedWindow {
  std::uint64_t seq = 0;         ///< per-session window ordinal, 0-based
  std::int64_t start_ts_us = 0;  ///< timestamp of the first raw sample
  std::int64_t end_ts_us = 0;    ///< timestamp of the last raw sample
  /// [window_length × factor, kStreamChannels] row-major source-rate values;
  /// data::preprocess_window turns this into the model window.
  std::vector<float> raw;
};

/// Monotonic per-session counters; readable from any thread.
struct SessionStats {
  std::uint64_t samples_accepted = 0;  ///< enqueued by push (ring head index)
  std::uint64_t samples_dropped = 0;  ///< ring full at push
  std::uint64_t out_of_order = 0;     ///< non-monotonic ts rejected at push
  std::uint64_t gaps = 0;             ///< ts gaps that reset window assembly
  std::uint64_t windows_sealed = 0;
};

class Session {
 public:
  /// Validates `config` (throws std::invalid_argument naming the problem)
  /// and sizes the ring.
  Session(std::string id, const SessionConfig& config);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& id() const noexcept { return id_; }
  const SessionConfig& config() const noexcept { return config_; }
  /// Source-rate samples per window / per hop (model value × factor).
  std::int64_t raw_window() const noexcept { return raw_window_; }
  std::int64_t raw_hop() const noexcept { return raw_hop_; }
  /// decimation_factor(source_rate_hz, target_hz).
  std::int64_t factor() const noexcept { return factor_; }

  /// Producer side: offers one sample. Returns false when it was NOT
  /// enqueued (ring full or out-of-order timestamp — distinguished in
  /// stats()). Never blocks. Defined inline below, so that a producer's
  /// per-sample loop inlines it.
  bool push(const Sample& sample) noexcept;

  /// Consumer side: scans newly arrived samples, applies gap detection, and
  /// returns every window that became complete, advancing the ring by one
  /// hop per sealed window.
  std::vector<SealedWindow> poll();

  /// Samples currently buffered in the ring (any thread).
  std::size_t buffered() const noexcept { return ring_.size(); }

  SessionStats stats() const noexcept;

 private:
  std::string id_;
  SessionConfig config_;
  std::int64_t factor_ = 1;
  std::int64_t raw_window_ = 0;
  std::int64_t raw_hop_ = 0;
  std::int64_t gap_limit_us_ = 0;

  SpscRing<Sample> ring_;

  // Producer-owned (single producer, no sharing).
  std::int64_t last_push_ts_ = 0;
  bool have_push_ts_ = false;

  // Consumer-owned scan state, kept between polls: samples [0, scan_)
  // relative to the ring's read index have been gap-checked, and the window
  // under assembly always starts at relative index 0.
  std::size_t scan_ = 0;
  std::int64_t prev_ts_ = 0;
  bool have_prev_ts_ = false;
  std::uint64_t next_seq_ = 0;

  // Cross-thread counters. samples_accepted is the ring's head index
  // (SpscRing::pushed), so an accepted push pays no counter update.
  std::atomic<std::uint64_t> samples_dropped_{0};
  std::atomic<std::uint64_t> out_of_order_{0};
  std::atomic<std::uint64_t> gaps_{0};
  std::atomic<std::uint64_t> windows_sealed_{0};
};

inline bool Session::push(const Sample& sample) noexcept {
  // Monotonicity filter at the source: rejecting non-increasing timestamps
  // here (instead of in the consumer) keeps the ring's content strictly
  // ordered, so a window is always a contiguous ring range.
  if (have_push_ts_ && sample.ts_us <= last_push_ts_) {
    out_of_order_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (!ring_.push(sample)) {
    samples_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  last_push_ts_ = sample.ts_us;
  have_push_ts_ = true;
  return true;
}

}  // namespace saga::stream
