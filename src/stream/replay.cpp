#include "stream/replay.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "util/rng.hpp"

namespace saga::stream {

namespace {

std::string_view trimmed(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t' ||
                           text.front() == '\r')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

template <typename T>
bool parse_number(std::string_view field, T& out) {
  field = trimmed(field);
  if (field.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), out);
  return ec == std::errc{} && ptr == field.data() + field.size();
}

/// One `ts_us,ax,ay,az,gx,gy,gz` row; false when the row is not 7 numbers.
bool parse_row(std::string_view line, Sample& out) {
  std::array<std::string_view, 1 + kStreamChannels> fields;
  std::size_t count = 0;
  while (true) {
    const std::size_t comma = line.find(',');
    if (count == fields.size()) return false;  // too many fields
    fields[count++] = line.substr(0, comma);
    if (comma == std::string_view::npos) break;
    line.remove_prefix(comma + 1);
  }
  if (count != fields.size()) return false;
  if (!parse_number(fields[0], out.ts_us)) return false;
  for (std::size_t c = 0; c < static_cast<std::size_t>(kStreamChannels); ++c) {
    if (!parse_number(fields[c + 1], out.v[c])) return false;
  }
  return true;
}

}  // namespace

std::vector<Sample> parse_csv_text(const std::string& text) {
  std::vector<Sample> samples;
  std::istringstream lines(text);
  std::string line;
  std::size_t line_number = 0;
  bool seen_data = false;
  while (std::getline(lines, line)) {
    ++line_number;
    const std::string_view row = trimmed(line);
    if (row.empty()) continue;
    Sample sample;
    double leading = 0.0;
    if (parse_row(row, sample)) {
      samples.push_back(sample);
      seen_data = true;
    } else if (!seen_data &&
               !parse_number(row.substr(0, row.find(',')), leading)) {
      // The first non-blank line whose leading field is not a number is the
      // (optional) header; a malformed NUMERIC first row is still an error.
      seen_data = true;
    } else {
      throw std::runtime_error(
          "stream: malformed CSV row at line " + std::to_string(line_number) +
          " (expected ts_us,ax,ay,az,gx,gy,gz): '" + std::string(row) + "'");
    }
  }
  return samples;
}

ReplayTrace load_csv(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("stream: cannot read CSV trace '" + path + "'");
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  ReplayTrace trace;
  trace.session = std::filesystem::path(path).stem().string();
  trace.samples = parse_csv_text(contents.str());
  return trace;
}

ReplayTrace synthetic_trace(const std::string& session, std::uint64_t seed,
                            double seconds, double rate_hz,
                            double regime_seconds) {
  if (seconds <= 0.0 || rate_hz <= 0.0 || regime_seconds <= 0.0) {
    throw std::invalid_argument(
        "synthetic_trace: seconds, rate_hz and regime_seconds must be "
        "positive");
  }
  util::Rng rng(seed);
  ReplayTrace trace;
  trace.session = session;
  const auto count = static_cast<std::int64_t>(std::llround(seconds * rate_hz));
  const std::int64_t regime_len = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(regime_seconds * rate_hz)));
  trace.samples.reserve(static_cast<std::size_t>(count));
  std::array<double, kStreamChannels> amp{};
  std::array<double, kStreamChannels> freq{};
  std::array<double, kStreamChannels> phase{};
  for (std::int64_t i = 0; i < count; ++i) {
    if (i % regime_len == 0) {
      // A new motion regime: fresh per-channel sinusoid parameters, so the
      // classifier sees distinguishable segments.
      for (std::size_t c = 0; c < static_cast<std::size_t>(kStreamChannels);
           ++c) {
        amp[c] = rng.uniform(0.2, 1.5);
        freq[c] = rng.uniform(0.5, 3.0);
        phase[c] = rng.uniform(0.0, 2.0 * std::numbers::pi);
      }
    }
    Sample sample;
    sample.ts_us =
        static_cast<std::int64_t>(std::llround(1e6 * i / rate_hz));
    const double t = static_cast<double>(i) / rate_hz;
    for (std::size_t c = 0; c < static_cast<std::size_t>(kStreamChannels);
         ++c) {
      sample.v[c] = static_cast<float>(
          amp[c] * std::sin(2.0 * std::numbers::pi * freq[c] * t + phase[c]) +
          rng.normal(0.0, 0.05));
    }
    trace.samples.push_back(sample);
  }
  return trace;
}

ReplayReport replay(SessionManager& manager,
                    const std::vector<ReplayTrace>& traces,
                    const ReplayOptions& options) {
  if (options.speed < 0.0) {
    throw std::invalid_argument("replay: speed must be >= 0");
  }
  ReplayReport report;
  report.sessions = traces.size();

  std::vector<Session*> sessions;
  sessions.reserve(traces.size());
  for (const ReplayTrace& trace : traces) {
    sessions.push_back(&manager.open(trace.session));
    report.samples_replayed += trace.samples.size();
  }

  const auto origin = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> producers;
    producers.reserve(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
      producers.emplace_back([&trace = traces[i], session = sessions[i],
                              origin, speed = options.speed] {
        if (trace.samples.empty()) return;
        const std::int64_t ts0 = trace.samples.front().ts_us;
        for (const Sample& sample : trace.samples) {
          if (speed > 0.0) {
            const auto due =
                origin + std::chrono::microseconds(static_cast<std::int64_t>(
                             std::llround(static_cast<double>(sample.ts_us -
                                                              ts0) /
                                          speed)));
            std::this_thread::sleep_until(due);
          }
          session->push(sample);  // lock-free; drops are counted, not waited
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
  }

  report.drained = manager.drain(kReplayDrainTimeout);
  for (const ReplayTrace& trace : traces) manager.finish(trace.session);
  report.latency.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - origin)
          .count();

  for (const ReplayTrace& trace : traces) {
    std::vector<Event> events = manager.take_events(trace.session);
    const std::int64_t ts0 =
        trace.samples.empty() ? 0 : trace.samples.front().ts_us;
    for (const Event& event : events) {
      // The event's final sample was scheduled at origin + (ts - ts0)/speed;
      // everything after that instant — ring, serve queue, batching,
      // composition — is the stream's end-to-end latency.
      auto due = origin;
      if (options.speed > 0.0) {
        due += std::chrono::microseconds(static_cast<std::int64_t>(
            std::llround(static_cast<double>(event.end_ts_us - ts0) /
                         options.speed)));
      }
      const double latency_ms =
          std::chrono::duration<double, std::milli>(event.emitted - due)
              .count();
      report.latency.latencies_ms.push_back(std::max(0.0, latency_ms));
    }
    report.events.emplace(trace.session, std::move(events));
  }
  std::sort(report.latency.latencies_ms.begin(),
            report.latency.latencies_ms.end());

  report.manager = manager.stats();
  report.latency.rejected = report.manager.windows_dropped;
  return report;
}

}  // namespace saga::stream
