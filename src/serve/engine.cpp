#include "serve/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "tensor/grad_mode.hpp"
#include "tensor/reduce.hpp"

namespace saga::serve {

namespace {

/// Consecutive bulk-free batches the dispatcher tolerates while bulk work is
/// pending before it reserves the next batch's first slot for the oldest
/// bulk request. Bounds bulk queueing delay to ~kBulkStarvationLimit + 1
/// batches under a sustained interactive flood.
constexpr std::uint64_t kBulkStarvationLimit = 3;

/// Rejects bad configs before the constructor builds any models.
EngineConfig checked(EngineConfig config) {
  if (config.max_batch_size <= 0) {
    throw std::invalid_argument("Engine: max_batch_size must be positive");
  }
  if (config.batch_window_us < 0) {
    throw std::invalid_argument("Engine: batch_window_us must be >= 0");
  }
  if (config.max_queue_depth <= 0) {
    throw std::invalid_argument("Engine: max_queue_depth must be positive");
  }
  if (config.warmup_forwards < 0) {
    throw std::invalid_argument("Engine: warmup_forwards must be >= 0");
  }
  if (config.initial_ewma_batch_ms < 0.0) {
    throw std::invalid_argument("Engine: initial_ewma_batch_ms must be >= 0");
  }
  return config;
}

/// The admission-control estimate update shared by real batches and the
/// constructor's warmup passes: first observation seeds, later ones fold.
void fold_ewma(double& ewma, double batch_ms) {
  ewma = ewma == 0.0 ? batch_ms : 0.8 * ewma + 0.2 * batch_ms;
}

}  // namespace

bool ResponseHandle::ready() const {
  return future_.valid() &&
         future_.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

bool ResponseHandle::wait_for(std::chrono::microseconds timeout) const {
  return future_.valid() &&
         future_.wait_for(timeout) == std::future_status::ready;
}

Prediction ResponseHandle::get() {
  detail::Fulfilled fulfilled = future_.get();
  latency_ms_ = std::chrono::duration<double, std::milli>(fulfilled.completed -
                                                          submitted_)
                    .count();
  batch_index_ = fulfilled.batch_index;
  return std::move(fulfilled.prediction);
}

Engine::Engine(Artifact artifact, EngineConfig config)
    : artifact_(std::move(artifact)),
      config_(checked(config)),
      backbone_(artifact_.make_backbone()),
      classifier_(artifact_.make_classifier()) {
  // The models now hold the only live copy of the weights (including the
  // prepacked int8 form on quantized artifacts); dropping the artifact's
  // blobs halves the engine's resident model memory. Metadata (configs,
  // task, precision, provenance, normalization stats) stays queryable.
  artifact_.backbone_state.clear();
  artifact_.classifier_state.clear();
  artifact_.backbone_quant.clear();
  artifact_.classifier_quant.clear();
  warm_up();
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

void Engine::warm_up() {
  // Runs before the dispatcher thread exists and before the engine is
  // published to any caller, so the models are accessed exclusively and
  // stats_ needs no lock.
  if (config_.initial_ewma_batch_ms > 0.0) {
    stats_.ewma_batch_ms = config_.initial_ewma_batch_ms;
    return;
  }
  if (config_.warmup_forwards == 0) return;
  NoGradGuard no_grad;
  const std::int64_t t = artifact_.window_length();
  const std::int64_t c = artifact_.channels();
  for (std::int64_t pass = 0; pass < config_.warmup_forwards; ++pass) {
    const Clock::time_point started = Clock::now();
    const Tensor inputs =
        Tensor::from_data({1, t, c},
                          std::vector<float>(static_cast<std::size_t>(t * c)));
    (void)classifier_.forward(backbone_.encode(inputs));
    // A batch-of-one underestimates a full batch's wall time, so the
    // seeded gate stays conservative (admits more than it should rather
    // than less) until real traffic refines the estimate.
    fold_ewma(stats_.ewma_batch_ms,
              std::chrono::duration<double, std::milli>(Clock::now() - started)
                  .count());
  }
}

Engine::~Engine() { shutdown(); }

void Engine::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  // call_once makes concurrent shutdown() calls (e.g. an explicit shutdown
  // racing the destructor) safe: one caller joins, the others block here
  // until the join has completed.
  std::call_once(join_once_, [this] {
    if (dispatcher_.joinable()) dispatcher_.join();
  });
}

Engine::Request Engine::make_request(std::span<const float> window,
                                     const RequestOptions& options) const {
  const auto expected = static_cast<std::size_t>(artifact_.window_length() *
                                                 artifact_.channels());
  if (window.size() != expected) {
    throw std::invalid_argument(
        "Engine::submit: window has " + std::to_string(window.size()) +
        " values, expected " + std::to_string(artifact_.window_length()) + "x" +
        std::to_string(artifact_.channels()) + " = " + std::to_string(expected));
  }
  if (options.deadline.count() < 0) {
    throw std::invalid_argument("Engine::submit: deadline must be >= 0");
  }
  Request request;
  request.priority = options.priority;
  request.window.assign(window.begin(), window.end());
  if (!artifact_.norm_mean.empty()) {
    const auto channels = static_cast<std::size_t>(artifact_.channels());
    for (std::size_t i = 0; i < request.window.size(); ++i) {
      const std::size_t c = i % channels;
      request.window[i] =
          (request.window[i] - artifact_.norm_mean[c]) / artifact_.norm_scale[c];
    }
  }
  return request;
}

std::vector<ResponseHandle> Engine::enqueue_all(std::vector<Request>& staged,
                                                Clock::time_point submitted) {
  std::vector<ResponseHandle> handles;
  handles.reserve(staged.size());
  for (Request& request : staged) {
    handles.push_back(ResponseHandle(request.result.get_future(), submitted));
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw EngineStoppedError("Engine::submit: engine is shut down");
    }
    const std::size_t queued = interactive_.size() + bulk_.size();
    if (queued + staged.size() >
        static_cast<std::size_t>(config_.max_queue_depth)) {
      stats_.rejected += staged.size();
      throw QueueFullError(
          "Engine::submit: queue full (" + std::to_string(queued) + " of " +
          std::to_string(config_.max_queue_depth) +
          " pending requests); shed load or retry");
    }
    // Deadline admission control: floor(queue_depth / max_batch) full
    // batches must run before a new request can launch; if the EWMA batch
    // latency says that already blows a request's deadline, reject now
    // (all-or-nothing, like the queue bound) instead of serving a result
    // the caller has contracted to consider late. With no batch history
    // (ewma == 0) or under one queued batch this never fires.
    if (config_.deadline_admission && stats_.ewma_batch_ms > 0.0) {
      const std::size_t batches_ahead =
          (queued + in_flight_) /
          static_cast<std::size_t>(config_.max_batch_size);
      if (batches_ahead > 0) {
        const auto estimated_wait =
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(
                    stats_.ewma_batch_ms *
                    static_cast<double>(batches_ahead)));
        for (const Request& request : staged) {
          if (request.deadline_at != Clock::time_point::max() &&
              submitted + estimated_wait > request.deadline_at) {
            stats_.rejected_hopeless += staged.size();
            throw HopelessDeadlineError(
                "Engine::submit: deadline hopeless at admission (~" +
                std::to_string(batches_ahead) + " batches x " +
                std::to_string(stats_.ewma_batch_ms) +
                " ms EWMA batch latency ahead of it); shed load or relax "
                "the deadline");
          }
        }
      }
    }
    for (Request& request : staged) {
      (request.priority == Priority::kBulk ? bulk_ : interactive_)
          .push_back(std::move(request));
    }
  }
  queue_cv_.notify_one();
  return handles;
}

void Engine::stamp_deadlines(Request& request, Clock::time_point submitted,
                             const RequestOptions& options) const {
  // How long the request may wait for its batch to fill: the engine-wide
  // batch window, tightened by any per-request deadline. Greedy engines
  // (batch_window_us == 0) launch as soon as the dispatcher is free, so a
  // deadline can only ever shorten the wait, never extend it. deadline_at
  // stays time_point::max() for requests with no explicit deadline, so the
  // expired-first batch fill only ever applies to real deadlines.
  auto wait = std::chrono::microseconds(config_.batch_window_us);
  if (options.deadline.count() > 0) {
    request.deadline_at = submitted + options.deadline;
    if (options.deadline < wait) wait = options.deadline;
  }
  request.launch_by = submitted + wait;
}

ResponseHandle Engine::submit(std::span<const float> window,
                              RequestOptions options) {
  std::vector<Request> staged;
  staged.push_back(make_request(window, options));
  const Clock::time_point submitted = Clock::now();
  stamp_deadlines(staged.front(), submitted, options);
  return std::move(enqueue_all(staged, submitted).front());
}

Prediction Engine::predict(std::span<const float> window,
                           RequestOptions options) {
  return submit(window, options).get();
}

std::vector<Prediction> Engine::predict_batch(
    const std::vector<std::vector<float>>& windows, RequestOptions options) {
  // A group larger than the queue bound could never be admitted whole, so
  // retrying would loop forever — reject it as a usage error, distinct from
  // transient QueueFullError backpressure.
  if (windows.size() > static_cast<std::size_t>(config_.max_queue_depth)) {
    throw std::invalid_argument(
        "Engine::predict_batch: " + std::to_string(windows.size()) +
        " windows can never fit the max_queue_depth " +
        std::to_string(config_.max_queue_depth) +
        " bound; split the group or raise the bound");
  }
  // Validate and stage every window before publishing anything, then push
  // them all under one lock: a bad window enqueues nothing, and the
  // dispatcher sees the whole group at once so it can coalesce up to
  // max_batch_size instead of waking on a batch of one.
  std::vector<Request> staged;
  staged.reserve(windows.size());
  for (const auto& window : windows) {
    staged.push_back(make_request(window, options));
  }
  const Clock::time_point submitted = Clock::now();
  for (Request& request : staged) stamp_deadlines(request, submitted, options);
  std::vector<ResponseHandle> handles = enqueue_all(staged, submitted);
  std::vector<Prediction> results;
  results.reserve(handles.size());
  for (auto& handle : handles) results.push_back(handle.get());
  return results;
}

std::size_t Engine::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return interactive_.size() + bulk_.size() + in_flight_;
}

std::size_t Engine::pending_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return interactive_.size() + bulk_.size();
}

void Engine::set_work_source(WorkSource source,
                             std::chrono::microseconds poll) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    work_source_ = std::move(source);
    work_poll_ = work_source_ ? poll : std::chrono::microseconds(0);
  }
  // Wake an idle dispatcher so it switches from an indefinite wait to the
  // polling wait (or back) without waiting for the next submission.
  queue_cv_.notify_all();
}

std::vector<Engine::Request> Engine::steal_pending(std::size_t max_requests) {
  std::vector<Request> taken;
  const std::lock_guard<std::mutex> lock(mutex_);
  // A draining engine keeps its queue: shutdown() has promised those
  // callers their results, and the dispatcher is already emptying it.
  if (stopping_ || max_requests == 0) return taken;
  // Same order the dispatcher would have taken them: expired deadlines
  // first, then interactive, then bulk — so stealing preserves each
  // request's relative urgency, it just moves where the batch runs.
  const Clock::time_point now = Clock::now();
  const auto take_expired = [&](std::deque<Request>& queue) {
    for (auto it = queue.begin();
         it != queue.end() && taken.size() < max_requests;) {
      if (it->deadline_at <= now) {
        taken.push_back(std::move(*it));
        it = queue.erase(it);
      } else {
        ++it;
      }
    }
  };
  take_expired(interactive_);
  take_expired(bulk_);
  while (taken.size() < max_requests && !interactive_.empty()) {
    taken.push_back(std::move(interactive_.front()));
    interactive_.pop_front();
  }
  while (taken.size() < max_requests && !bulk_.empty()) {
    taken.push_back(std::move(bulk_.front()));
    bulk_.pop_front();
  }
  stats_.donated += taken.size();
  return taken;
}

void Engine::inject_stolen(std::vector<Request> requests) {
  if (requests.empty()) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      // The caller still owns the requests (by-value parameter is theirs
      // to recover via catch + re-route); a stopped dispatcher would never
      // run them.
      throw EngineStoppedError(
          "Engine::inject_stolen: engine is shut down; place the requests "
          "elsewhere");
    }
    // No max_queue_depth check: these requests were already admitted by a
    // sibling shard — this is rebalancing, not new admission.
    stats_.stolen += requests.size();
    for (Request& request : requests) {
      (request.priority == Priority::kBulk ? bulk_ : interactive_)
          .push_back(std::move(request));
    }
  }
  queue_cv_.notify_one();
}

std::vector<Engine::Request> Engine::take_batch_locked(Clock::time_point now) {
  const auto cap = static_cast<std::size_t>(config_.max_batch_size);
  std::vector<Request> batch;
  batch.reserve(std::min(cap, interactive_.size() + bulk_.size()));
  // Deadline contract first: a request whose explicit deadline has expired
  // must be in the batch its expiry launched, ahead of priority order —
  // otherwise an expired kBulk request could sit behind interactive traffic
  // while its stale launch_by also kept collapsing the batch window to
  // greedy dispatch for everyone else.
  const auto take_expired = [&](std::deque<Request>& queue) {
    for (auto it = queue.begin(); it != queue.end() && batch.size() < cap;) {
      if (it->deadline_at <= now) {
        batch.push_back(std::move(*it));
        it = queue.erase(it);
      } else {
        ++it;
      }
    }
  };
  take_expired(interactive_);
  take_expired(bulk_);
  // Anti-starvation: under a sustained interactive flood, every
  // kBulkStarvationLimit + 1 batches reserve the next slot for the oldest
  // bulk request.
  if (batch.size() < cap && !bulk_.empty() &&
      batches_since_bulk_ >= kBulkStarvationLimit) {
    batch.push_back(std::move(bulk_.front()));
    bulk_.pop_front();
  }
  while (batch.size() < cap && !interactive_.empty()) {
    batch.push_back(std::move(interactive_.front()));
    interactive_.pop_front();
  }
  while (batch.size() < cap && !bulk_.empty()) {
    batch.push_back(std::move(bulk_.front()));
    bulk_.pop_front();
  }
  std::uint64_t bulk_count = 0;
  for (const Request& request : batch) {
    if (request.priority == Priority::kBulk) ++bulk_count;
  }
  if (bulk_count > 0) {
    batches_since_bulk_ = 0;
  } else if (!bulk_.empty()) {
    ++batches_since_bulk_;
  } else {
    batches_since_bulk_ = 0;  // nothing pending to starve
  }
  stats_.bulk_requests += bulk_count;
  return batch;
}

void Engine::dispatch_loop() {
  // The dispatcher owns all model access; gradients are never needed.
  NoGradGuard no_grad;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (interactive_.empty() && bulk_.empty()) {
      if (stopping_) return;
      if (work_source_) {
        // Idle with a work source installed: poll a sibling before
        // sleeping. The source (Router::steal_for) takes its own locks, so
        // invoke it unlocked; re-check the queues afterwards because a
        // submission may have landed while we were out.
        const WorkSource source = work_source_;
        const std::chrono::microseconds poll = work_poll_;
        lock.unlock();
        std::vector<Request> stolen;
        try {
          stolen = source(static_cast<std::size_t>(config_.max_batch_size));
        } catch (...) {
          // A racing swap/shutdown can invalidate the source mid-call;
          // treat it as "nothing to steal" — the next poll sees the
          // refreshed source (or none).
        }
        lock.lock();
        if (!stolen.empty()) {
          // Enqueue even when a shutdown raced the steal: the drain loop
          // processes non-empty queues while stopping, so the stolen
          // requests are still fulfilled (by this engine) before the
          // dispatcher exits — nothing is ever dropped. launch_by collapses
          // to now: the thief was idle, so stolen work launches in the very
          // next batch instead of re-waiting its original batch window —
          // and because the take happens under this same lock hold, the
          // stolen requests are never observable as pending by a sibling
          // (no steal ping-pong).
          stats_.stolen += stolen.size();
          const Clock::time_point now = Clock::now();
          for (Request& request : stolen) {
            request.launch_by = now;
            (request.priority == Priority::kBulk ? bulk_ : interactive_)
                .push_back(std::move(request));
          }
          continue;  // dispatch the stolen work immediately
        }
        if (interactive_.empty() && bulk_.empty() && !stopping_) {
          // Nothing stolen and still idle: sleep one poll interval (the
          // queue re-check above happened under the same hold of the lock,
          // so a concurrent submit cannot slip between check and wait).
          queue_cv_.wait_for(lock, poll);
        }
        continue;
      }
      queue_cv_.wait(lock);
      continue;
    }
    const std::size_t total = interactive_.size() + bulk_.size();
    if (!stopping_ &&
        total < static_cast<std::size_t>(config_.max_batch_size)) {
      // The batch is not full: hold it open until the earliest launch_by
      // across all queued requests (each is enqueue time + batch window,
      // tightened by that request's deadline). Greedy engines have
      // launch_by == enqueue time, so they fall straight through.
      Clock::time_point earliest = Clock::time_point::max();
      for (const Request& request : interactive_) {
        earliest = std::min(earliest, request.launch_by);
      }
      for (const Request& request : bulk_) {
        earliest = std::min(earliest, request.launch_by);
      }
      if (Clock::now() < earliest) {
        queue_cv_.wait_until(lock, earliest);
        continue;  // re-evaluate: new arrivals may have filled the batch
      }
    }
    // Depth observed at batch launch: everything queued before the take
    // plus whatever a concurrent batch still has in flight.
    stats_.queue_depth_hist.record(static_cast<double>(total + in_flight_));
    std::vector<Request> batch = take_batch_locked(Clock::now());
    stats_.requests += batch.size();
    stats_.batches += 1;
    stats_.largest_batch =
        std::max<std::uint64_t>(stats_.largest_batch, batch.size());
    stats_.batch_size_hist.record(static_cast<double>(batch.size()));
    in_flight_ += batch.size();
    const std::uint64_t batch_index = stats_.batches;
    lock.unlock();
    run_batch(batch, batch_index);
    lock.lock();
    in_flight_ -= batch.size();
  }
}

void Engine::run_batch(std::vector<Request>& batch,
                       std::uint64_t batch_index) {
  const Clock::time_point started = Clock::now();
  try {
    const auto b = static_cast<std::int64_t>(batch.size());
    const std::int64_t t = artifact_.window_length();
    const std::int64_t c = artifact_.channels();
    std::vector<float> packed;
    packed.reserve(static_cast<std::size_t>(b * t * c));
    for (const Request& request : batch) {
      packed.insert(packed.end(), request.window.begin(), request.window.end());
    }
    const Tensor inputs = Tensor::from_data({b, t, c}, std::move(packed));
    const Tensor logits = classifier_.forward(backbone_.encode(inputs));
    const std::vector<std::int64_t> labels = argmax_lastdim(logits);
    const auto view = logits.data();
    const std::int64_t classes = artifact_.num_classes();
    const Clock::time_point completed = Clock::now();
    {
      // Update the admission-control latency estimate before fulfilling any
      // promise, so a caller whose get() has returned observes a primed
      // EWMA (keeps tests deterministic).
      const std::lock_guard<std::mutex> lock(mutex_);
      const double batch_ms =
          std::chrono::duration<double, std::milli>(completed - started)
              .count();
      fold_ewma(stats_.ewma_batch_ms, batch_ms);
      stats_.batch_latency_ms_hist.record(batch_ms);
    }
    for (std::int64_t i = 0; i < b; ++i) {
      detail::Fulfilled fulfilled;
      fulfilled.prediction.label =
          static_cast<std::int32_t>(labels[static_cast<std::size_t>(i)]);
      const auto* row = view.data() + i * classes;
      fulfilled.prediction.logits.assign(row, row + classes);
      fulfilled.completed = completed;
      fulfilled.batch_index = batch_index;
      batch[static_cast<std::size_t>(i)].result.set_value(std::move(fulfilled));
    }
  } catch (...) {
    for (Request& request : batch) {
      try {
        request.result.set_exception(std::current_exception());
      } catch (const std::future_error&) {
        // Promise already satisfied (failure mid-delivery); nothing to do.
      }
    }
  }
}

EngineStats Engine::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  EngineStats stats = stats_;
  stats.queue_depth = interactive_.size() + bulk_.size() + in_flight_;
  // For a single engine mean and worst coincide; Router::aggregate_stats
  // separates them across shards.
  stats.ewma_batch_ms_worst = stats.ewma_batch_ms;
  return stats;
}

}  // namespace saga::serve
