// serve::Engine — an asynchronous, deadline- and priority-aware batched
// inference front-end over a loaded serve::Artifact: the ROADMAP's "heavy
// traffic" serving seam.
//
// The primary API is submit(): any number of client threads hand a window to
// the engine together with RequestOptions{deadline, priority} and get back a
// future-backed ResponseHandle they can poll, wait on, or block on — so one
// caller can fan out many requests before collecting any result. predict()
// and predict_batch() remain as thin submit()+get() wrappers, so existing
// blocking callers migrate mechanically.
//
// A dedicated dispatcher thread coalesces pending windows into one [B, T, C]
// forward pass (whose tensor ops fan out over util::ThreadPool). Three knobs
// shape the batching:
//
//   batch_window_us  how long the dispatcher may hold a non-full batch open
//                    waiting for more arrivals (0 = greedy: launch whatever
//                    is queued). Per-request deadlines cap the wait: a
//                    request with deadline d must be launched within d of
//                    its submission even if the window has not elapsed.
//   priority         two-level queue: kInteractive requests are taken before
//                    kBulk backfill, except that after kBulkStarvationLimit
//                    consecutive bulk-free batches the oldest bulk request is
//                    served first, so backfill cannot starve.
//   max_queue_depth  bounded queue providing backpressure: submissions
//                    beyond this many undispatched requests are rejected
//                    with QueueFullError instead of growing without bound.
//
// Batching never changes results: every sample in a batch is computed by the
// same per-row arithmetic as a batch of one, so batched predictions are
// bit-identical to the single-window path regardless of deadline/priority
// options (tested).
//
// Consumes: raw windows of window_length x channels floats (optionally
// normalized via the artifact's per-channel stats). Produces: Prediction
// {argmax label, logits}. The Engine owns its models; client threads never
// touch them, which is what makes concurrent use safe. After shutdown() (or
// during destruction) further submissions throw std::runtime_error; requests
// already queued are drained and fulfilled.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "models/backbone.hpp"
#include "models/classifier.hpp"
#include "serve/artifact.hpp"
#include "serve/metrics.hpp"

namespace saga::serve {

/// Two-level request priority. kInteractive requests jump ahead of kBulk
/// backfill in the dispatcher's queue (subject to the anti-starvation guard).
enum class Priority : std::uint8_t { kInteractive = 0, kBulk = 1 };

/// Per-request submission options.
struct RequestOptions {
  Priority priority = Priority::kInteractive;
  /// Upper bound on how long this request may sit in the queue waiting for
  /// its batch to fill. Zero means "no per-request bound": the engine's
  /// batch_window_us (if any) governs. A deadline shorter than the engine's
  /// batch window forces an earlier launch, and an expired deadline pulls
  /// the request into the next batch ahead of priority order (so a kBulk
  /// deadline cannot be starved past it by interactive traffic). It is a
  /// batching bound, not a completion-time guarantee.
  std::chrono::microseconds deadline{0};
};

/// Thrown by submit()/predict() when the engine's bounded request queue is
/// full (backpressure): the caller should shed load or retry later.
struct QueueFullError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Thrown by submit()/predict() when admission control determines the
/// request's deadline is already hopeless at submit time: the estimated
/// queueing delay (batches ahead of it × the recent EWMA batch latency)
/// exceeds the deadline, so running it would only waste a batch slot on a
/// result the caller has contracted to consider late. Derives from
/// QueueFullError so shed-load handling (Router's walk-the-shards retry,
/// loadgen rejected-counting) applies unchanged — it is backpressure, just
/// detected per-deadline instead of per-queue-bound.
struct HopelessDeadlineError : QueueFullError {
  using QueueFullError::QueueFullError;
};

/// Thrown by submit()/predict() after shutdown() — including while an old
/// engine drains during Router::swap_artifact. Distinct from backpressure:
/// the Router re-routes to the live replacement shard instead of counting
/// it against the caller. Derives from std::runtime_error, so pre-existing
/// "submit after shutdown throws runtime_error" handling is unchanged.
struct EngineStoppedError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct EngineConfig {
  /// Most pending requests coalesced into one forward pass.
  std::int64_t max_batch_size = 16;
  /// How long the dispatcher may hold a non-full batch open waiting for more
  /// requests, in microseconds. 0 = greedy (launch whatever is queued the
  /// moment the dispatcher is free) — the pre-async behaviour.
  std::int64_t batch_window_us = 0;
  /// Bound on undispatched requests; submissions beyond it throw
  /// QueueFullError. Must be positive.
  std::int64_t max_queue_depth = 1024;
  /// Reject requests whose deadline is already hopeless at submit time
  /// (estimated queueing delay > deadline) with HopelessDeadlineError.
  /// Conservative by construction: the estimate is floor(queue_depth /
  /// max_batch_size) × the EWMA batch latency, so an engine with no batch
  /// history or with less than one full batch queued never rejects.
  bool deadline_admission = true;
  /// Synthetic (zeros-window) forward passes run at construction to seed
  /// ewma_batch_ms before any real traffic arrives. Without this, deadline
  /// admission is wide open on a cold engine: the gate needs a latency
  /// estimate, so a freshly constructed (or freshly hot-swapped) engine
  /// would admit an arbitrarily deep queue of already-hopeless requests
  /// until its first batch completed. The warmup passes touch no counters
  /// or histograms (they are not traffic), only the EWMA. 0 disables —
  /// the pre-warmup cold-start behaviour, for tests that need it.
  std::int64_t warmup_forwards = 1;
  /// When positive, seeds ewma_batch_ms directly and skips the warmup
  /// forwards. Router::swap_artifact uses this to carry the admission
  /// estimate across a hot-swap, so the replacement shard rejects hopeless
  /// deadlines from its first submission.
  double initial_ewma_batch_ms = 0.0;
};

struct Prediction {
  /// argmax over logits: the predicted class under the artifact's task.
  std::int32_t label = 0;
  std::vector<float> logits;  // [num_classes]
};

namespace detail {
/// What the dispatcher actually delivers: the prediction plus completion
/// bookkeeping the ResponseHandle turns into latency/batch introspection.
struct Fulfilled {
  Prediction prediction;
  std::chrono::steady_clock::time_point completed{};
  std::uint64_t batch_index = 0;  // stats().batches value of the fulfilling pass
};

using Clock = std::chrono::steady_clock;

/// One queued submission, self-contained: the (already normalized) window,
/// its batching policy stamps, and the promise its ResponseHandle waits on.
/// Serve-internal — exposed here only because cross-shard work stealing
/// (Engine::steal_pending / inject_stolen, wired by the Router) moves
/// requests between engines serving the same artifact; whichever engine
/// fulfils a request produces the identical result, so moving one changes
/// only its latency.
struct Request {
  std::vector<float> window;  // already normalized, size T*C
  Priority priority = Priority::kInteractive;
  Clock::time_point launch_by{};  // latest batch-launch time for this request
  /// Absolute expiry of the per-request deadline (time_point::max() when
  /// none). Once past, the request is pulled into the next batch ahead of
  /// priority order — a deadline overrides queueing policy, not just the
  /// batch window.
  Clock::time_point deadline_at = Clock::time_point::max();
  std::promise<detail::Fulfilled> result;
};
}  // namespace detail

/// The caller's side of one submitted request: a movable, future-backed
/// handle. Exactly one of get() may be called; poll with ready()/wait_for()
/// first to fan out without blocking. After get() returns, latency_ms() and
/// batch_index() report how the request was served.
class ResponseHandle {
 public:
  ResponseHandle() = default;
  ResponseHandle(ResponseHandle&&) = default;
  ResponseHandle& operator=(ResponseHandle&&) = default;

  /// True when this handle is attached to a submission whose get() has not
  /// been consumed yet.
  bool valid() const noexcept { return future_.valid(); }
  /// Non-blocking: true when the result (or error) is ready to collect.
  bool ready() const;
  /// Blocks up to `timeout`; true when the result became ready.
  bool wait_for(std::chrono::microseconds timeout) const;
  /// Blocks until ready and returns the prediction; rethrows any inference
  /// error. Throws std::future_error if called twice or on an empty handle.
  Prediction get();

  /// Submission-to-completion latency of this request; valid after get().
  double latency_ms() const noexcept { return latency_ms_; }
  /// Which forward pass (Engine stats().batches ordinal, 1-based) fulfilled
  /// this request; valid after get(). Lets tests observe batching order.
  std::uint64_t batch_index() const noexcept { return batch_index_; }

 private:
  friend class Engine;
  ResponseHandle(std::future<detail::Fulfilled> future,
                 std::chrono::steady_clock::time_point submitted)
      : future_(std::move(future)), submitted_(submitted) {}

  std::future<detail::Fulfilled> future_;
  std::chrono::steady_clock::time_point submitted_{};
  double latency_ms_ = -1.0;
  std::uint64_t batch_index_ = 0;
};

/// Monotonic service counters plus distribution histograms (a consistent
/// snapshot via Engine::stats(); Router::stats() aggregates across shards
/// via aggregate_stats()).
struct EngineStats {
  std::uint64_t requests = 0;       // windows predicted
  std::uint64_t batches = 0;        // forward passes run
  std::uint64_t largest_batch = 0;  // max windows in one forward pass
  std::uint64_t bulk_requests = 0;  // subset of `requests` with Priority::kBulk
  std::uint64_t rejected = 0;       // submissions refused by the bounded queue
  /// Submissions refused by deadline admission control (disjoint from
  /// `rejected`, which counts only queue-bound refusals).
  std::uint64_t rejected_hopeless = 0;
  /// Requests this engine pulled from sibling shards' queues while its own
  /// dispatcher was idle (Router cross-shard work stealing); counted into
  /// `requests` by the fulfilling — this — engine.
  std::uint64_t stolen = 0;
  /// Requests sibling shards pulled out of this engine's queues.
  std::uint64_t donated = 0;
  /// Exponentially weighted moving average of forward-pass wall time, in
  /// milliseconds — the admission control's service-time estimate. Seeded
  /// by the constructor's warmup forwards (see EngineConfig), so it is
  /// positive from the first submission unless warmup is disabled.
  double ewma_batch_ms = 0.0;
  /// For a single engine, identical to ewma_batch_ms. In a Router
  /// aggregate, ewma_batch_ms becomes the depth-weighted mean across
  /// shards and this field keeps the slowest shard's estimate, so
  /// worst-case consumers still have the old (pre-fix) max available.
  double ewma_batch_ms_worst = 0.0;
  /// Undispatched + in-flight requests at snapshot time (the same measure as
  /// Engine::queue_depth(), captured atomically with the counters above).
  /// Unlike the other fields this is a gauge, not a monotonic counter.
  std::uint64_t queue_depth = 0;
  /// Distributions over every forward pass: wall time per batch, windows
  /// per batch, and queued+in-flight depth observed at batch launch. Fixed
  /// log-scale layouts (serve::Histogram), merged element-wise across
  /// shards by Router::stats().
  Histogram batch_latency_ms_hist = Histogram::latency_ms();
  Histogram batch_size_hist = Histogram::batch_sizes();
  Histogram queue_depth_hist = Histogram::depths();
  double mean_batch() const noexcept {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) /
                              static_cast<double>(batches);
  }
};

class Engine {
 public:
  /// Takes ownership of `artifact` (models are built once, in eval mode).
  explicit Engine(Artifact artifact, EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Submits one window (window_length x channels floats, row-major [T x C])
  /// for asynchronous prediction. Thread-safe; returns immediately with a
  /// handle. Throws std::invalid_argument on a wrong-sized window,
  /// QueueFullError when the bounded queue is full, HopelessDeadlineError
  /// when admission control deems the deadline unmeetable (see
  /// EngineConfig::deadline_admission), and EngineStoppedError (a
  /// std::runtime_error) after shutdown.
  ResponseHandle submit(std::span<const float> window,
                        RequestOptions options = {});

  /// Blocking convenience: submit(window, options).get().
  Prediction predict(std::span<const float> window,
                     RequestOptions options = {});

  /// Predicts many windows; equivalent to (and bit-identical with) calling
  /// predict() once per window, but submits them all before collecting any
  /// result so the dispatcher can batch them together. All-or-nothing under
  /// backpressure: either every window is enqueued or QueueFullError is
  /// thrown and none are. A group larger than max_queue_depth could never
  /// be admitted and throws std::invalid_argument instead (retrying would
  /// never help).
  std::vector<Prediction> predict_batch(
      const std::vector<std::vector<float>>& windows,
      RequestOptions options = {});

  /// Undispatched + in-flight requests right now — the router's routing
  /// signal and the backpressure measure.
  std::size_t queue_depth() const;
  /// Undispatched requests only (no in-flight): the measure the bounded
  /// queue admits against, and the work-stealing skew signal.
  std::size_t pending_depth() const;

  // ---- cross-shard work stealing (Router plumbing) --------------------
  /// A work source the idle dispatcher polls: asked for up to `max`
  /// requests, it returns requests stolen from a sibling engine serving
  /// the same artifact (or an empty vector when no sibling runs hot).
  using WorkSource =
      std::function<std::vector<detail::Request>(std::size_t max)>;
  /// Installs (or, with nullptr, removes) the work source. With a source
  /// set, a dispatcher that goes idle invokes it before sleeping and then
  /// re-polls every `poll` instead of blocking indefinitely, so a queue
  /// running hot on a sibling is discovered within one poll interval.
  /// Stolen requests launch immediately (the thief is idle, so their
  /// batch-window stamps collapse to now) and are counted under
  /// stats().stolen. Thread-safe.
  void set_work_source(WorkSource source, std::chrono::microseconds poll);
  /// Pops up to `max_requests` undispatched requests off this engine's
  /// queues, oldest-first within the same order the dispatcher would have
  /// taken them (expired deadlines, then interactive, then bulk), and
  /// counts them under stats().donated. Returns empty after shutdown (a
  /// draining engine keeps its own queue). The caller owns the requests
  /// and must hand them to an engine serving the same artifact — results
  /// are then bit-identical, only latency changes.
  std::vector<detail::Request> steal_pending(std::size_t max_requests);
  /// Enqueues requests stolen from a sibling (keeping their priority
  /// class and deadline stamps) and wakes the dispatcher; counts them
  /// under stats().stolen. Deliberately not subject to max_queue_depth:
  /// this is rebalancing of already-admitted work, not new admission.
  /// Throws EngineStoppedError after shutdown — the caller still owns the
  /// requests and must place them elsewhere.
  void inject_stolen(std::vector<detail::Request> requests);

  /// Drains pending requests, then stops the dispatcher. Idempotent; called
  /// by the destructor.
  void shutdown();

  /// The loaded artifact's metadata (configs, task, provenance, norm stats).
  /// Its weight blobs are released after model construction to halve
  /// resident memory, so backbone_state/classifier_state are empty here.
  const Artifact& artifact() const noexcept { return artifact_; }
  /// Numeric format the forwards run in, selected by the artifact: int8
  /// artifacts serve through the quantized GEMM path (make_backbone attaches
  /// the prepacked weights), fp32 through the float one.
  quant::Precision precision() const noexcept { return artifact_.precision; }
  const EngineConfig& config() const noexcept { return config_; }
  EngineStats stats() const;

 private:
  using Clock = detail::Clock;
  using Request = detail::Request;

  Request make_request(std::span<const float> window,
                       const RequestOptions& options) const;
  /// Stamps launch_by (batch window capped by the per-request deadline) and
  /// deadline_at onto a staged request.
  void stamp_deadlines(Request& request, Clock::time_point submitted,
                       const RequestOptions& options) const;
  /// Appends `staged` to the queues under one lock; all-or-nothing against
  /// the depth bound. Returns the handles in submission order.
  std::vector<ResponseHandle> enqueue_all(std::vector<Request>& staged,
                                          Clock::time_point submitted);
  void dispatch_loop();
  /// Pops the next batch (mutex_ must be held). Deadline-expired requests
  /// are taken first (the deadline contract), then priority order with the
  /// bulk anti-starvation guard.
  std::vector<Request> take_batch_locked(Clock::time_point now);
  void run_batch(std::vector<Request>& batch, std::uint64_t batch_index);
  /// Seeds stats_.ewma_batch_ms before the engine is published: either
  /// from config_.initial_ewma_batch_ms, or by timing warmup_forwards
  /// synthetic zeros-window passes (counters and histograms untouched).
  void warm_up();

  Artifact artifact_;
  EngineConfig config_;
  models::LimuBertBackbone backbone_;
  models::GruClassifier classifier_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<Request> interactive_;
  std::deque<Request> bulk_;
  std::size_t in_flight_ = 0;          // popped but not yet fulfilled
  std::uint64_t batches_since_bulk_ = 0;
  EngineStats stats_;
  bool stopping_ = false;
  WorkSource work_source_;                  // guarded by mutex_
  std::chrono::microseconds work_poll_{0};  // guarded by mutex_
  std::once_flag join_once_;  // serializes concurrent shutdown() joins
  std::thread dispatcher_;    // last member: joined before the rest dies
};

}  // namespace saga::serve
