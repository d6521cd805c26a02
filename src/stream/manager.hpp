// stream::SessionManager — "follow a user" instead of "classify a window":
// owns many stream::Sessions and runs one pump thread that moves data down
// the online hierarchy
//
//   producer threads ──push──▶ Session SPSC rings          (lock-free)
//        pump: poll() ──▶ sealed raw windows
//              data::preprocess_window()                   (resample+normalize,
//                                                           shared batch path)
//              serve submit(kInteractive, deadline)        (Engine or Router)
//              collect ready predictions, in order
//              Composer.push ──▶ events (per session)
//
// Backpressure never reaches the producer: a session's sealed-window queue
// is bounded (`max_pending_windows`, oldest dropped and counted) and a serve
// rejection (QueueFullError / HopelessDeadlineError) likewise drops the
// oldest pending window — freshest-data-wins, which is the right policy for
// a live perception stream where a stale window's event has already expired.
//
// Threading: producers touch only their session's ring (push is lock-free).
// One pump thread owns all per-session mutable state (pending/in-flight
// queues, the Composer) and the shared `mutex_` guards the session map,
// event buffers, and manager counters, so open()/take_events()/stats()/
// drain() are safe from any thread. The serve Engine/Router must outlive
// the manager; stop() (or the destructor) joins the pump.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "stream/composer.hpp"
#include "stream/session.hpp"

namespace saga::stream {

struct StreamConfig {
  /// Windowing / rates / ring sizing, applied to every session.
  SessionConfig session;
  /// Gravity constant handed to data::preprocess_window (1.0 when the
  /// source already reports g-units, as the synthetic traces do).
  double g = 9.80665;
  /// Sealed windows a session may hold while waiting for serve capacity;
  /// beyond it the OLDEST window is dropped and counted (never blocks).
  std::size_t max_pending_windows = 8;
  /// Per-window serve deadline (0 = none). Windows are submitted as
  /// kInteractive: a window's result is only useful while its motion is
  /// still recent.
  std::chrono::microseconds deadline{50000};
  /// Stage-B composition over the per-window label stream.
  ComposerConfig composer;
};

/// Aggregated manager counters (a consistent snapshot via stats()).
struct ManagerStats {
  std::uint64_t sessions = 0;
  std::uint64_t windows_sealed = 0;     ///< completed by Session::poll
  std::uint64_t windows_submitted = 0;  ///< accepted by the serve layer
  std::uint64_t windows_dropped = 0;    ///< pending overflow + serve
                                        ///< rejections + engine-side errors
  std::uint64_t windows_completed = 0;  ///< predictions fed to a Composer
  std::uint64_t events = 0;             ///< events emitted by Composers
  std::uint64_t samples_dropped = 0;    ///< summed Session ring drops
  std::uint64_t out_of_order = 0;       ///< summed Session ts rejections
  std::uint64_t gaps = 0;               ///< summed Session ts gaps
};

class SessionManager {
 public:
  /// The engine/router must outlive the manager. Throws
  /// std::invalid_argument on a bad config (validated via Session).
  SessionManager(serve::Engine& engine, StreamConfig config);
  SessionManager(serve::Router& router, StreamConfig config);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a session; the returned reference stays valid for the
  /// manager's lifetime and its push() is the producer's (lock-free) feed.
  /// Throws std::invalid_argument on a duplicate id, std::runtime_error
  /// after stop().
  Session& open(const std::string& id);

  /// Events emitted for `id` since the last take (stream order); clears
  /// the buffer. Throws std::out_of_range for an unknown id.
  std::vector<Event> take_events(const std::string& id);

  /// Ends `id`'s stream: seals what the ring still completes, waits for its
  /// in-flight windows, flushes its Composer (emitting the trailing
  /// segment). The session stays queryable; its producer must have stopped.
  void finish(const std::string& id);

  ManagerStats stats() const;
  SessionStats session_stats(const std::string& id) const;

  /// Blocks until every pushed sample has either flowed through
  /// seal -> submit -> predict -> compose or been counted as dropped —
  /// i.e. no ring can seal another window, no pending or in-flight windows
  /// remain. Producers must have stopped pushing. Returns false on timeout.
  /// (Composers are NOT flushed — call finish() per session for that.)
  bool drain(std::chrono::milliseconds timeout);

  /// Stops the pump thread (idempotent; also run by the destructor).
  /// In-flight work is abandoned where it stands.
  void stop();

  const StreamConfig& config() const noexcept { return config_; }

 private:
  struct InFlight {
    serve::ResponseHandle handle;
    std::uint64_t seq = 0;
    std::int64_t start_ts_us = 0;
    std::int64_t end_ts_us = 0;
  };
  struct SessionState {
    explicit SessionState(std::unique_ptr<Session> s, ComposerConfig composer)
        : session(std::move(s)), composer(std::move(composer)) {}
    std::unique_ptr<Session> session;
    Composer composer;
    std::deque<SealedWindow> pending;  // sealed, awaiting serve capacity
    std::deque<InFlight> in_flight;    // submitted, awaiting prediction
    std::vector<Event> events;         // completed, awaiting take_events
    bool finished = false;             // composer flushed
  };

  using SubmitFn = std::function<serve::ResponseHandle(
      std::span<const float>, serve::RequestOptions)>;

  SessionManager(SubmitFn submit, StreamConfig config);
  void pump_loop();
  /// One pass over every session under mutex_; returns true when any window
  /// moved (seal/submit/complete), so the pump only sleeps when idle.
  bool pump_once();
  void pump_session(SessionState& state);
  bool drained_locked() const;

  SubmitFn submit_;
  StreamConfig config_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<SessionState>> sessions_;
  ManagerStats stats_;
  bool stopping_ = false;
  std::once_flag join_once_;  // serializes concurrent stop() joins

  std::thread pump_;  // last member: joined before the rest dies
};

}  // namespace saga::stream
