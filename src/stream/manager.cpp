#include "stream/manager.hpp"

#include <iterator>
#include <stdexcept>
#include <utility>

#include "data/preprocess.hpp"

namespace saga::stream {

namespace {

// Pump sleep between passes when nothing moved, and the poll period of
// finish() and drain().
constexpr std::chrono::microseconds kPumpInterval{500};

}  // namespace

SessionManager::SessionManager(serve::Engine& engine, StreamConfig config)
    : SessionManager(
          SubmitFn([&engine](std::span<const float> window,
                             serve::RequestOptions options) {
            return engine.submit(window, options);
          }),
          std::move(config)) {}

SessionManager::SessionManager(serve::Router& router, StreamConfig config)
    : SessionManager(
          SubmitFn([&router](std::span<const float> window,
                             serve::RequestOptions options) {
            return router.submit(window, options);
          }),
          std::move(config)) {}

SessionManager::SessionManager(SubmitFn submit, StreamConfig config)
    : submit_(std::move(submit)), config_(std::move(config)) {
  if (config_.max_pending_windows == 0) {
    throw std::invalid_argument(
        "SessionManager: max_pending_windows must be positive");
  }
  // Fail on a bad session/composer config here, at construction, instead of
  // on the first open(): both types validate in their constructors.
  (void)Session("", config_.session);
  (void)Composer(config_.composer);
  pump_ = std::thread([this] { pump_loop(); });
}

SessionManager::~SessionManager() { stop(); }

void SessionManager::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  std::call_once(join_once_, [this] {
    if (pump_.joinable()) pump_.join();
  });
}

Session& SessionManager::open(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) {
    throw std::runtime_error("SessionManager: open() after stop()");
  }
  auto [it, inserted] = sessions_.try_emplace(id);
  if (!inserted) {
    throw std::invalid_argument("SessionManager: session '" + id +
                                "' already open");
  }
  it->second = std::make_unique<SessionState>(
      std::make_unique<Session>(id, config_.session), config_.composer);
  ++stats_.sessions;
  return *it->second->session;
}

std::vector<Event> SessionManager::take_events(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::out_of_range("SessionManager: unknown session '" + id + "'");
  }
  std::vector<Event> events = std::move(it->second->events);
  it->second->events.clear();
  return events;
}

SessionStats SessionManager::session_stats(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::out_of_range("SessionManager: unknown session '" + id + "'");
  }
  return it->second->session->stats();
}

void SessionManager::finish(const std::string& id) {
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      throw std::out_of_range("SessionManager: unknown session '" + id + "'");
    }
    SessionState& state = *it->second;
    if (state.finished) return;
    const bool quiescent =
        state.pending.empty() && state.in_flight.empty() &&
        state.session->buffered() <
            static_cast<std::size_t>(state.session->raw_window());
    // With the pump stopped nothing will ever quiesce further; flush with
    // whatever has been composed so far rather than spinning forever.
    if (quiescent || stopping_) {
      std::vector<Event> events = state.composer.flush();
      const auto now = std::chrono::steady_clock::now();
      for (Event& event : events) event.emitted = now;
      stats_.events += events.size();
      state.events.insert(state.events.end(),
                          std::make_move_iterator(events.begin()),
                          std::make_move_iterator(events.end()));
      state.finished = true;
      return;
    }
    lock.unlock();
    std::this_thread::sleep_for(kPumpInterval);
  }
}

ManagerStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ManagerStats stats = stats_;
  stats.sessions = sessions_.size();
  for (const auto& [id, state] : sessions_) {
    const SessionStats s = state->session->stats();
    stats.samples_dropped += s.samples_dropped;
    stats.out_of_order += s.out_of_order;
    stats.gaps += s.gaps;
  }
  return stats;
}

bool SessionManager::drained_locked() const {
  for (const auto& [id, state] : sessions_) {
    if (state->finished) continue;
    if (!state->pending.empty() || !state->in_flight.empty()) return false;
    if (state->session->buffered() >=
        static_cast<std::size_t>(state->session->raw_window())) {
      return false;  // the ring can still seal a window
    }
  }
  return true;
}

bool SessionManager::drain(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (drained_locked()) return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      std::lock_guard<std::mutex> lock(mutex_);
      return drained_locked();
    }
    std::this_thread::sleep_for(kPumpInterval);
  }
}

void SessionManager::pump_loop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    if (!pump_once()) std::this_thread::sleep_for(kPumpInterval);
  }
}

bool SessionManager::pump_once() {
  std::lock_guard<std::mutex> lock(mutex_);
  bool moved = false;
  for (auto& [id, state] : sessions_) {
    if (state->finished) continue;
    const std::uint64_t before =
        stats_.windows_sealed + stats_.windows_submitted +
        stats_.windows_completed + stats_.windows_dropped;
    pump_session(*state);
    moved |= stats_.windows_sealed + stats_.windows_submitted +
                 stats_.windows_completed + stats_.windows_dropped !=
             before;
  }
  return moved;
}

void SessionManager::pump_session(SessionState& state) {
  // 1. Seal: pull completed raw windows out of the ring into the bounded
  //    pending queue, shedding the OLDEST on overflow (freshest-data-wins).
  std::vector<SealedWindow> sealed = state.session->poll();
  stats_.windows_sealed += sealed.size();
  for (SealedWindow& window : sealed) {
    state.pending.push_back(std::move(window));
    if (state.pending.size() > config_.max_pending_windows) {
      state.pending.pop_front();
      ++stats_.windows_dropped;
    }
  }

  // 2. Submit: preprocess pending windows (source rate -> model rate, the
  //    shared batch-path entry point) and hand them to the serve layer. A
  //    backpressure rejection sheds the oldest window and ends the round —
  //    the serve queue will not have drained within this pass.
  const SessionConfig& session_config = state.session->config();
  while (!state.pending.empty()) {
    const SealedWindow& front = state.pending.front();
    const std::vector<float> window = data::preprocess_window(
        front.raw, kStreamChannels, session_config.source_rate_hz,
        session_config.target_hz, config_.g);
    const serve::RequestOptions options{
        .priority = serve::Priority::kInteractive,
        .deadline = config_.deadline};
    InFlight in_flight;
    in_flight.seq = front.seq;
    in_flight.start_ts_us = front.start_ts_us;
    in_flight.end_ts_us = front.end_ts_us;
    try {
      in_flight.handle = submit_(window, options);
    } catch (const serve::QueueFullError&) {
      // Also covers HopelessDeadlineError: the window would be stale by the
      // time it ran, so count it dropped rather than retry it ever-later.
      state.pending.pop_front();
      ++stats_.windows_dropped;
      break;
    }
    state.pending.pop_front();
    ++stats_.windows_submitted;
    state.in_flight.push_back(std::move(in_flight));
  }

  // 3. Compose: collect finished predictions IN SUBMISSION ORDER (the
  //    Composer consumes a stream; a later window must not overtake an
  //    earlier one), feed the Composer, and stamp emission times.
  while (!state.in_flight.empty() && state.in_flight.front().handle.ready()) {
    InFlight done = std::move(state.in_flight.front());
    state.in_flight.pop_front();
    try {
      serve::Prediction prediction = done.handle.get();
      std::vector<Event> events =
          state.composer.push(prediction.label, prediction.logits,
                              done.start_ts_us, done.end_ts_us);
      const auto now = std::chrono::steady_clock::now();
      for (Event& event : events) event.emitted = now;
      stats_.events += events.size();
      ++stats_.windows_completed;
      state.events.insert(state.events.end(),
                          std::make_move_iterator(events.begin()),
                          std::make_move_iterator(events.end()));
    } catch (const std::exception&) {
      // An inference error loses this window's vote; the stream goes on.
      ++stats_.windows_dropped;
    }
  }
}

}  // namespace saga::stream
