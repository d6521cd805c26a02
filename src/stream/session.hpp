// stream::Session — one user's continuous IMU stream: an SPSC ring of
// timestamped 6-axis samples written by a producer thread (device driver,
// UDP receiver, CSV replayer) and cut into hop-based overlapping raw windows
// by the SessionManager's pump thread.
//
// Windowing happens *in the ring*: the consumer scans arriving samples in
// place (SpscRing::peek, at most two contiguous spans per column per poll)
// and copies nothing until `window_length × factor` consecutive samples are
// present, at which point one SealedWindow is copied out and the read index
// advances by `hop × factor` — so overlapping windows share their overlap
// through the ring, not through duplicated buffers. The ring keeps
// timestamps and values in separate columns, so the gap scan reads only the
// dense timestamp column, and a sealed window's rows leave as one flat float
// range (two when the window wraps the ring). The factor is
// data::decimation_factor(source_rate_hz, target_hz): a session
// assembles windows in the *source-rate* domain so that the shared
// data::preprocess_window() entry point downsamples each sealed window to
// exactly `window_length` model samples.
//
// Robustness contract (out-of-order and dropped samples are tolerated):
//   non-monotonic timestamp  rejected at push, `out_of_order` counted — the
//                            ring therefore always holds strictly increasing
//                            timestamps, which is what lets windows be
//                            contiguous ring ranges. A sample is compared
//                            with the ring's newest (last accepted)
//                            timestamp, never with a rejected one.
//   ring full at push        sample dropped, `samples_dropped` counted; the
//                            producer NEVER blocks. (Checked second: an
//                            out-of-order sample counts as out-of-order
//                            whether or not the ring is full.)
//   timestamp gap            consumer-side: a jump > gap_tolerance × the
//                            nominal sample period discards the partial
//                            window before the gap (`gaps` counted) and
//                            restarts assembly at the post-gap sample, so a
//                            window never silently spans a sensor outage.
//
// Threading: push() from exactly one producer thread, poll() from exactly
// one consumer thread, stats() from anywhere (atomic counters and the ring's
// head index). Each counter has one writer — the producer counts drops and
// out-of-order samples, the consumer gaps and sealed windows — so a count is
// a relaxed load and store, not a locked add.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "stream/spsc_ring.hpp"

namespace saga::stream {

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
  /// (4 × the raw window). Must fit at least one raw window, and at most
  /// SpscRing::kMaxCapacity samples (1 GiB).
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

  SpscRing ring_;

  // Consumer-owned scan state, kept between polls: samples [0, scan_)
  // relative to the ring's read index have been gap-checked, and the window
  // under assembly always starts at relative index 0.
  std::size_t scan_ = 0;
  std::int64_t prev_ts_ = 0;
  bool have_prev_ts_ = false;
  std::uint64_t next_seq_ = 0;

  // Cross-thread counters, each with one writer thread (named below), which
  // adds with count(). samples_accepted is the ring's head index
  // (SpscRing::pushed), so an accepted push pays no counter update.
  std::atomic<std::uint64_t> samples_dropped_{0};  // producer
  std::atomic<std::uint64_t> out_of_order_{0};     // producer
  std::atomic<std::uint64_t> gaps_{0};             // consumer
  std::atomic<std::uint64_t> windows_sealed_{0};   // consumer

  // Adds one to a counter that only the calling thread writes: a relaxed
  // load and store, where a fetch_add would be a locked instruction. Other
  // threads still read every value whole.
  static void count(std::atomic<std::uint64_t>& counter) noexcept {
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }
};

inline bool Session::push(const Sample& sample) noexcept {
  // The ring rejects a timestamp not above its newest one before it checks
  // for room, so the ring's content stays strictly ordered and a window is
  // always a contiguous ring range.
  switch (ring_.push(sample.ts_us, sample.v.data())) {
    case SpscRing::Push::kAccepted:
      return true;
    case SpscRing::Push::kOutOfOrder:
      count(out_of_order_);
      return false;
    case SpscRing::Push::kFull:
      count(samples_dropped_);
      return false;
  }
  return false;
}

}  // namespace saga::stream
