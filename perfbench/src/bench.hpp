// Shared pieces of the end-to-end benchmark: the two workloads, the round's
// state (model artifact, traces and their offline windows), in-memory spans,
// and the JSON-lines records a round prints for run.py to aggregate.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "serve/artifact.hpp"
#include "stream/replay.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline std::int64_t ns_of(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans: recorded in memory (one Tracer per thread), written at exit.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same tracer, -1 = root
  std::int64_t op = -1;      // step or request id
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  std::int32_t open(const char* name, std::int64_t op) {
    const auto index = static_cast<std::int32_t>(records_.size());
    records_.push_back({name, ns_of(Clock::now()), 0, current_, op});
    current_ = index;
    return index;
  }
  void close(std::int32_t index) {
    records_[static_cast<std::size_t>(index)].end_ns = ns_of(Clock::now());
    current_ = records_[static_cast<std::size_t>(index)].parent;
  }
  const std::vector<SpanRecord>& records() const noexcept { return records_; }
  /// Durations (ms) of every span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Per span called `name`: the share (%) of its duration its direct
  /// children cover.
  std::vector<double> child_cover_pct(const std::string& name) const;
  /// Writes one JSON object per span (with self time) to `path`.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  std::int32_t current_ = -1;
  std::vector<SpanRecord> records_;
};

class Span {
 public:
  Span(Tracer& tracer, const char* name, std::int64_t op = -1)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) index_ = tracer_->open(name, op);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_ = -1;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Both workloads stream 6 s windows (120 samples at 20 Hz, the window of the
/// paper's model) cut from 100 Hz sources, hop 60; they differ in how many
/// sessions one producer feeds, so in the working set each window touches.
struct Workload {
  std::string name;
  int sessions = 16;  // one distinct synthetic trace each
  int passes = 1200;  // fresh sessions each; a 25th of them when traced
};

Workload make_workload(const std::string& name);

// ---------------------------------------------------------------------------
// Phase records: one JSON line per finished phase on stdout.
// ---------------------------------------------------------------------------

struct PhaseResult {
  std::string phase;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Raw samples per metric name; run.py pools them across rounds.
  std::map<std::string, std::vector<double>> samples;
  /// Named checks and whether they held.
  std::map<std::string, bool> checks;
  /// Short notes for failed checks.
  std::vector<std::string> notes;

  void check(const std::string& name, bool ok, const std::string& note = {});
  bool all_ok() const;
};

void emit_result(const PhaseResult& result);

// ---------------------------------------------------------------------------
// Round state.
// ---------------------------------------------------------------------------

/// One trace and its offline windows: sliced by index, then preprocessed.
struct TraceRef {
  saga::stream::ReplayTrace trace;
  std::vector<std::vector<float>> windows;
};

struct Round {
  Workload workload;
  double trace_seconds = 60.0;  // per session, at 100 Hz
  std::uint64_t seed = 1;
  std::string out_dir;
  Tracer tracer{false};

  std::optional<saga::serve::Artifact> fp32;  // reloaded from disk
  std::vector<TraceRef> refs;                 // one per session
};

/// Model build, fp32 artifact export, save and reload. None of the set-up
/// or the stream ingest enters the thread pool (README.md).
void setup_model(Round& round, PhaseResult& result);
/// The sessions' traces and their offline windows.
void setup_streams(Round& round, PhaseResult& result);

PhaseResult run_stream_ingest(Round& round);

/// Windows the stream ingest phase attempts (what a round announces before
/// starting it).
std::int64_t ingest_attempts(const Round& round);

}  // namespace perfbench
