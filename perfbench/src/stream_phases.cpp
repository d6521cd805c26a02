// Stream ingest: what stream::SessionManager's pump does for every window
// before it reaches the serve layer, driven by one producer thread over the
// workload's sessions. Each operation is one window: push the hop of 100 Hz
// samples that completes it into its stream::Session, poll the sealed raw
// window, and preprocess it to the model's rate (data::preprocess_window).
// None of this enters the thread pool.
//
// Every window is compared bit for bit with an offline pass over the same
// trace (sliced at hop offsets by index, then preprocessed), and the sealed
// windows per session with the closed form floor((N - W*f) / (H*f)) + 1.
//
// Samples are per-pass medians of the per-window times: hundreds of passes
// spread the phase over seconds of a shared host's changing speed, and keep the
// records small.
#include <algorithm>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "data/preprocess.hpp"
#include "stream/session.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kHop = 60;
constexpr double kSourceHz = 100.0;
constexpr double kTargetHz = 20.0;
constexpr double kG = 1.0;  // synthetic traces are in g units

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::string session_id(std::size_t i) {
  std::string id = "s";
  id += std::to_string(i);
  return id;
}

std::int64_t closed_form_windows(std::int64_t samples, std::int64_t raw_window,
                                 std::int64_t raw_hop) {
  return samples < raw_window ? 0 : (samples - raw_window) / raw_hop + 1;
}

struct Geometry {
  std::int64_t window;      // model samples per window
  std::int64_t raw_window;  // source samples per window
  std::int64_t raw_hop;     // source samples per hop
};

Geometry geometry(const Round& round) {
  const std::int64_t factor =
      saga::data::decimation_factor(kSourceHz, kTargetHz);
  const std::int64_t window = round.fp32->window_length();
  return {window, window * factor, kHop * factor};
}

}  // namespace

std::int64_t ingest_attempts(const Round& round) {
  const Geometry g = geometry(round);
  const auto samples =
      static_cast<std::int64_t>(round.trace_seconds * kSourceHz + 0.5);
  return closed_form_windows(samples, g.raw_window, g.raw_hop) * round.workload.sessions *
         round.workload.passes;
}

void setup_streams(Round& round, PhaseResult& result) {
  const Geometry g = geometry(round);
  round.refs.resize(static_cast<std::size_t>(round.workload.sessions));
  double trace_s = 0.0;
  double offline_s = 0.0;
  for (std::size_t i = 0; i < round.refs.size(); ++i) {
    TraceRef& ref = round.refs[i];
    auto t0 = Clock::now();
    {
      Span span(round.tracer, "stream.trace");
      ref.trace = saga::stream::synthetic_trace(session_id(i),
                                                round.seed * 1000003ULL + i, round.trace_seconds,
                                                kSourceHz);
    }
    trace_s += ms_between(t0, Clock::now()) / 1e3;
    t0 = Clock::now();
    Span span(round.tracer, "data.offline");
    const auto& samples = ref.trace.samples;
    const auto n = static_cast<std::int64_t>(samples.size());
    for (std::int64_t start = 0; start + g.raw_window <= n; start += g.raw_hop) {
      std::vector<float> raw;
      raw.reserve(static_cast<std::size_t>(g.raw_window * saga::stream::kStreamChannels));
      for (std::int64_t j = start; j < start + g.raw_window; ++j) {
        const auto& v = samples[static_cast<std::size_t>(j)].v;
        raw.insert(raw.end(), v.begin(), v.end());
      }
      ref.windows.push_back(saga::data::preprocess_window(
          raw, saga::stream::kStreamChannels, kSourceHz, kTargetHz, kG));
    }
    offline_s += ms_between(t0, Clock::now()) / 1e3;
    result.check("offline_window_count",
                 static_cast<std::int64_t>(ref.windows.size()) ==
                     closed_form_windows(n, g.raw_window, g.raw_hop));
  }
  result.samples["stream.trace_s"].push_back(trace_s);
  result.samples["data.offline_s"].push_back(offline_s);
}

PhaseResult run_stream_ingest(Round& round) {
  PhaseResult result;
  result.phase = "stream_ingest";
  result.attempted = ingest_attempts(round);
  const Geometry g = geometry(round);
  const auto& refs = round.refs;

  saga::stream::SessionConfig config;
  config.window_length = g.window;
  config.hop = kHop;
  config.source_rate_hz = kSourceHz;
  config.target_hz = kTargetHz;
  config.ring_capacity = static_cast<std::size_t>(g.raw_window + g.raw_hop);

  const std::int64_t windows = static_cast<std::int64_t>(refs.front().windows.size());
  Tracer& tr = round.tracer;
  std::int64_t op = 0;
  for (int pass = 0; pass < round.workload.passes; ++pass) {
    // Per-window times of this pass: ingest, then (traced) push per sample,
    // poll and preprocess.
    std::vector<double> ingest_us;
    std::vector<double> push_ns;
    std::vector<double> poll_us;
    std::vector<double> preprocess_us;
    std::vector<std::unique_ptr<saga::stream::Session>> sessions;
    std::vector<std::vector<std::vector<float>>> got(refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
      sessions.push_back(std::make_unique<saga::stream::Session>(session_id(i),
                                                                 config));
      // Untimed priming: all but the last hop of the first window.
      for (std::int64_t j = 0; j < g.raw_window - g.raw_hop; ++j) {
        sessions[i]->push(refs[i].trace.samples[static_cast<std::size_t>(j)]);
      }
    }
    // Round-robin over the sessions, one window each per turn, as one
    // producer feeding many devices would.
    for (std::int64_t w = 0; w < windows; ++w) {
      const std::int64_t begin = g.raw_window - g.raw_hop + w * g.raw_hop;
      for (std::size_t i = 0; i < refs.size(); ++i, ++op) {
        const auto& samples = refs[i].trace.samples;
        saga::stream::Session& session = *sessions[i];
        std::vector<saga::stream::SealedWindow> sealed;
        std::vector<float> window;
        const auto t0 = Clock::now();
        if (tr.enabled()) {
          Span whole(tr, "stream.window", op);
          Clock::time_point t1;
          Clock::time_point t2;
          {
            Span span(tr, "stream.push", op);
            for (std::int64_t j = begin; j < begin + g.raw_hop; ++j) {
              session.push(samples[static_cast<std::size_t>(j)]);
            }
            t1 = Clock::now();
          }
          {
            Span span(tr, "stream.poll", op);
            sealed = session.poll();
            t2 = Clock::now();
          }
          {
            Span span(tr, "data.preprocess", op);
            for (const auto& raw : sealed) {
              window = saga::data::preprocess_window(raw.raw, saga::stream::kStreamChannels,
                                                     kSourceHz, kTargetHz, kG);
            }
          }
          const auto t3 = Clock::now();
          ingest_us.push_back(ms_between(t0, t3) * 1e3);
          push_ns.push_back(ms_between(t0, t1) * 1e6 / static_cast<double>(g.raw_hop));
          poll_us.push_back(ms_between(t1, t2) * 1e3);
          preprocess_us.push_back(ms_between(t2, t3) * 1e3);
        } else {
          for (std::int64_t j = begin; j < begin + g.raw_hop; ++j) {
            session.push(samples[static_cast<std::size_t>(j)]);
          }
          sealed = session.poll();
          for (const auto& raw : sealed) {
            window = saga::data::preprocess_window(raw.raw, saga::stream::kStreamChannels,
                                                   kSourceHz, kTargetHz, kG);
          }
          ingest_us.push_back(ms_between(t0, Clock::now()) * 1e3);
        }
        if (sealed.size() == 1) got[i].push_back(std::move(window));
      }
    }
    if (tr.enabled()) {
      result.samples["trace.stream.ingest_us"].push_back(median(ingest_us));
      result.samples["stream.push_ns"].push_back(median(push_ns));
      result.samples["stream.poll_us"].push_back(median(poll_us));
      result.samples["data.preprocess_us"].push_back(median(preprocess_us));
    } else {
      result.samples["stream.ingest_us"].push_back(median(ingest_us));
    }
    bool sealed_ok = true;
    bool windows_ok = true;
    bool clean = true;
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const saga::stream::SessionStats stats = sessions[i]->stats();
      const auto n = static_cast<std::int64_t>(refs[i].trace.samples.size());
      sealed_ok = sealed_ok && static_cast<std::int64_t>(stats.windows_sealed) ==
                                   closed_form_windows(n, g.raw_window, g.raw_hop);
      clean = clean && stats.samples_dropped == 0 && stats.out_of_order == 0 && stats.gaps == 0;
      windows_ok = windows_ok && got[i].size() == refs[i].windows.size();
      for (std::size_t w = 0; windows_ok && w < got[i].size(); ++w) {
        const auto& a = got[i][w];
        const auto& b = refs[i].windows[w];
        windows_ok = a.size() == b.size() &&
                     std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
      }
    }
    result.check("sealed_matches_closed_form", sealed_ok);
    result.check("no_samples_dropped_or_reordered", clean);
    result.check("windows_match_offline_pass", windows_ok);
  }
  if (tr.enabled()) {
    for (const double pct : tr.child_cover_pct("stream.window")) {
      result.samples["cover.stream.ingest_pct"].push_back(pct);
    }
  }
  if (!result.all_ok()) result.failed = result.attempted;
  return result;
}

}  // namespace perfbench
