// saga_perf: one round of the end-to-end benchmark in one process.
//
//   saga_perf --workload paper|fleet --seed N --trace 0|1 --out DIR [--smoke]
//
// A round sets up (the model and its fp32 artifact, the sessions' traces and
// their offline windows), then runs the stream ingest phase with a fixed
// number of windows. It prints one JSON line as the round plans and one as
// the phase and the set-up end; run.py runs several rounds per benchmark run
// and pools their samples.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "models/backbone.hpp"
#include "models/classifier.hpp"
#include "quant/quant.hpp"
#include "stream/session.hpp"
#include "tensor/eltwise/eltwise.hpp"
#include "tensor/gemm/gemm.hpp"
#include "tensor/gemm/gemm_s8.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

/// Peak resident set from /proc/self/status, in MB (0 if unavailable).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = "VmHWM:";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream fields(line.substr(prefix.size()));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

// ---- workloads --------------------------------------------------------------

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "paper") {
    // 16 sessions: their rings (29 KB each) stay in a core's 2 MB L2.
    w.sessions = 16;
    w.passes = 1200;
  } else if (name == "fleet") {
    // 256 sessions: 7.4 MB of rings and 49 MB of traces, so a session's ring
    // has left L2 by its next turn.
    w.sessions = 256;
    w.passes = 60;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (expected paper or fleet)");
  }
  return w;
}

// ---- spans --------------------------------------------------------------------

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& r : records_) {
    if (name == r.name) out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
  }
  return out;
}

std::vector<double> Tracer::child_cover_pct(const std::string& name) const {
  std::vector<double> children(records_.size(), 0.0);
  for (const SpanRecord& r : records_) {
    if (r.parent >= 0) {
      children[static_cast<std::size_t>(r.parent)] +=
          static_cast<double>(r.end_ns - r.start_ns);
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    if (name != r.name || r.end_ns <= r.start_ns) continue;
    out.push_back(100.0 * children[i] / static_cast<double>(r.end_ns - r.start_ns));
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::vector<std::int64_t> children(records_.size(), 0);
  for (const SpanRecord& r : records_) {
    if (r.parent >= 0) children[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
  }
  std::ofstream out(path);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << r.name << "\",\"start_ns\":" << r.start_ns
        << ",\"end_ns\":" << r.end_ns << ",\"parent\":" << r.parent << ",\"op\":" << r.op
        << ",\"self_ns\":" << (r.end_ns - r.start_ns - children[i]) << "}\n";
  }
}

// ---- phase records ------------------------------------------------------------

void PhaseResult::check(const std::string& name, bool ok, const std::string& note) {
  auto [it, inserted] = checks.try_emplace(name, ok);
  if (!inserted) it->second = it->second && ok;
  if (!ok && notes.size() < 8) notes.push_back(name + (note.empty() ? "" : ": " + note));
}

bool PhaseResult::all_ok() const {
  for (const auto& [name, ok] : checks) {
    if (!ok) return false;
  }
  return true;
}

void emit_result(const PhaseResult& result) {
  std::ostringstream out;
  out << "{\"event\":\"end\",\"phase\":\"" << result.phase
      << "\",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
      << ",\"samples\":{";
  bool first = true;
  for (const auto& [name, values] : result.samples) {
    out << (first ? "" : ",") << "\"" << name << "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out << (i == 0 ? "" : ",") << json_number(values[i]);
    }
    out << "]";
    first = false;
  }
  out << "},\"checks\":{";
  first = true;
  for (const auto& [name, ok] : result.checks) {
    out << (first ? "" : ",") << "\"" << name << "\":" << (ok ? "true" : "false");
    first = false;
  }
  out << "},\"notes\":[";
  for (std::size_t i = 0; i < result.notes.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\"" << json_escape(result.notes[i]) << "\"";
  }
  out << "]}";
  std::cout << out.str() << std::endl;
}

// ---- set-up -------------------------------------------------------------------

void setup_model(Round& round, PhaseResult& result) {
  Span span(round.tracer, "setup.model");
  saga::util::SeedSplitter seeds(round.seed);
  // The paper's §VII-A1 model (the default configs) on 6-channel, 120-sample
  // windows with 6 activity classes.
  saga::models::BackboneConfig backbone;
  backbone.seed = seeds.next();
  saga::models::ClassifierConfig classifier;
  classifier.seed = seeds.next();
  auto t0 = Clock::now();
  std::optional<Span> build_span;
  build_span.emplace(round.tracer, "models.build");
  saga::models::LimuBertBackbone backbone_model(backbone);
  saga::models::GruClassifier classifier_model(classifier);
  build_span.reset();
  result.samples["models.build_s"].push_back(ms_between(t0, Clock::now()) / 1e3);
  t0 = Clock::now();
  std::optional<Span> export_span;
  export_span.emplace(round.tracer, "serve.export");
  const saga::serve::Artifact exported = saga::serve::Artifact::from_models(
      backbone_model, classifier_model, saga::data::Task::kActivityRecognition,
      "perfbench " + round.workload.name);
  export_span.reset();
  result.samples["serve.export_s"].push_back(ms_between(t0, Clock::now()) / 1e3);
  t0 = Clock::now();
  {
    Span io(round.tracer, "util.artifact_io");
    const std::string path = round.out_dir + "/fp32.saga";
    exported.save(path);
    round.fp32 = saga::serve::Artifact::load(path);
  }
  result.samples["util.artifact_io_s"].push_back(ms_between(t0, Clock::now()) / 1e3);
  result.check("fp32_artifact_round_trip",
               round.fp32->backbone_state == exported.backbone_state &&
                   round.fp32->classifier_state == exported.classifier_state &&
                   round.fp32->window_length() == 120 &&
                   round.fp32->channels() == saga::stream::kStreamChannels);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto process_start = Clock::now();
  try {
    std::string workload = "paper";
    std::string out_dir = ".";
    std::uint64_t seed = 1;
    bool trace = false;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        seed = std::stoull(value());
      } else if (arg == "--trace") {
        trace = value() != "0";
      } else if (arg == "--out") {
        out_dir = value();
      } else if (arg == "--smoke") {
        smoke = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }

    Round round;
    round.workload = make_workload(workload);
    if (smoke) {
      round.trace_seconds = 15.0;
      round.workload.sessions = 2;
      round.workload.passes = 1;
    } else if (trace) {
      // A traced pass records four spans per window; a 25th of the passes
      // keeps the span file to a few MB and still gives per-layer medians.
      round.workload.passes = std::max(1, round.workload.passes / 25);
    }
    round.seed = seed;
    round.tracer = Tracer(trace);
    round.out_dir = out_dir;
    std::filesystem::create_directories(out_dir);

    std::cerr << "saga_perf: " << workload << " seed " << seed << " | gemm "
              << saga::gemm::kernel_name() << ", int8 " << saga::gemm::int8_kernel_name()
              << " (" << saga::quant::act_encoding_name(saga::quant::preferred_act_encoding())
              << "), eltwise " << saga::eltwise::kernel_name() << ", "
              << std::thread::hardware_concurrency() << " hardware threads\n";

    // Set-up runs from entering main to the first timed operation: the model,
    // its fp32 artifact's export, save and reload, and the sessions' traces
    // with their offline windows.
    PhaseResult setup;
    setup.phase = "setup";
    setup_model(round, setup);
    const std::int64_t attempts = ingest_attempts(round);
    std::cout << "{\"event\":\"plan\",\"phases\":[[\"stream_ingest\"," << attempts << "]]}"
              << std::endl;
    setup_streams(round, setup);
    const double setup_ms = ms_between(process_start, Clock::now());
    setup.samples["setup_s"].push_back(setup_ms / 1e3);
    if (trace) {
      // Share of set-up the layer spans account for; the rest is argument
      // parsing, output and the gaps between spans.
      double parts_ms = 0.0;
      for (const char* part :
           {"models.build", "serve.export", "util.artifact_io", "stream.trace", "data.offline"}) {
        for (const double ms : round.tracer.durations_ms(part)) parts_ms += ms;
      }
      setup.samples["cover.setup_pct"].push_back(100.0 * parts_ms / setup_ms);
    }
    emit_result(run_stream_ingest(round));
    setup.samples["rss_mb"].push_back(peak_rss_mb());
    emit_result(setup);
    if (trace) round.tracer.write(out_dir + "/spans.jsonl");
  } catch (const std::exception& error) {
    std::cerr << "saga_perf: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
