// stream::replay — the CSV-replay driver: plays Action_Detector-style
// on-disk captures (`ts_us,ax,ay,az,gx,gy,gz`, one row per sample, header
// line optional) back into a SessionManager as if live devices were
// streaming, at real-time or accelerated speed, and measures end-to-end
// *event latency*: the wall-clock distance between the moment a window's
// last sample was (re)produced and the moment the Composer emitted the
// event it completed. That is the number a deployment cares about — not
// per-window inference latency, but "how far behind the user's motion do
// detections run".
//
// One producer thread per trace sleeps each sample until its scheduled
// replay time `origin + (ts - ts0) / speed` and pushes it into the
// session's ring (lock-free, never blocking). speed == 0 replays as fast
// as the producer can push — the determinism mode used by tests, where two
// replays of the same traces must yield identical event streams.
//
// Produces a ReplayReport whose latency sample is a serve::LoadReport, so
// the serve layer's percentile machinery (p50/p95/p99/p99.9 summary line)
// reports stream latencies with the same format as request latencies.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/metrics.hpp"
#include "stream/manager.hpp"
#include "stream/session.hpp"

namespace saga::stream {

/// One session's recorded stream: the unit the replay driver plays back.
struct ReplayTrace {
  std::string session;
  std::vector<Sample> samples;  // strictly the file order (not re-sorted)
};

struct ReplayOptions {
  /// Replay speed multiplier: 1 = real time, 4 = 4x accelerated, 0 = as
  /// fast as the producer threads can push (no sleeping).
  double speed = 1.0;
};

/// How long replay() waits after the producers finish for the pipeline to
/// drain (seal -> serve -> compose) before flushing the composers.
inline constexpr std::chrono::milliseconds kReplayDrainTimeout{10000};

struct ReplayReport {
  std::uint64_t sessions = 0;
  std::uint64_t samples_replayed = 0;  ///< pushed into rings (incl. rejected)
  /// True when every window drained through the pipeline inside
  /// kReplayDrainTimeout.
  bool drained = false;
  /// Manager counters at the end of the replay (drops, gaps, events, ...).
  ManagerStats manager;
  /// Every event each session emitted, in stream order.
  std::unordered_map<std::string, std::vector<Event>> events;
  /// Event latencies (ms), sample-ts -> event-emitted: for each event, the
  /// gap between its final sample's scheduled replay time and its emission.
  /// Reuses the serve::LoadReport percentile/summary machinery;
  /// `latency.rejected` mirrors dropped windows.
  serve::LoadReport latency;
};

/// Parses CSV text in the capture layout. Skips an optional header line and
/// blank lines; throws std::runtime_error naming the 1-based line number of
/// the first malformed row.
std::vector<Sample> parse_csv_text(const std::string& text);

/// parse_csv_text over a file's contents; throws std::runtime_error when
/// the file cannot be read. The trace's session id is the file's stem.
ReplayTrace load_csv(const std::string& path);

/// A deterministic synthetic capture for tests/benchmarks: `seconds` of
/// 6-axis data at `rate_hz` whose motion regime switches every
/// `regime_seconds`, giving the classifier distinguishable segments without
/// any file on disk. Throws std::invalid_argument, before allocating, unless
/// all three are positive and finite and `seconds * rate_hz` is at most
/// 2^25 samples (1 GiB).
ReplayTrace synthetic_trace(const std::string& session, std::uint64_t seed,
                            double seconds, double rate_hz,
                            double regime_seconds = 6.0);

/// Opens one session per trace on `manager`, replays every trace on its own
/// producer thread at `options.speed`, drains, finishes the sessions
/// (flushing composers), and reports. Session ids must be distinct and not
/// already open. The manager keeps the sessions afterwards (queryable, but
/// finished).
ReplayReport replay(SessionManager& manager,
                    const std::vector<ReplayTrace>& traces,
                    const ReplayOptions& options = {});

}  // namespace saga::stream
