// Micro-benchmarks for the tensor/NN substrate (google-benchmark).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/preprocess.hpp"
#include "models/backbone.hpp"
#include "nn/attention.hpp"
#include "models/classifier.hpp"
#include "nn/gru.hpp"
#include "stream/replay.hpp"
#include "stream/session.hpp"
#include "tensor/attention_fused.hpp"
#include "tensor/eltwise/eltwise.hpp"
#include "tensor/gemm/gemm_s8.hpp"
#include "tensor/grad_mode.hpp"
#include "tensor/loss.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace saga;

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  util::Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor c = matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_Bmm(benchmark::State& state) {
  util::Rng rng(2);
  Tensor a = Tensor::randn({32, 120, 18}, rng);
  Tensor b = Tensor::randn({32, 120, 18}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor c = bmm(a, b, false, true);
    benchmark::DoNotOptimize(c.data().data());
  }
}
BENCHMARK(BM_Bmm);

void BM_FusedAttentionForward(benchmark::State& state) {
  util::Rng rng(3);
  Tensor q = Tensor::randn({32, 120, 72}, rng);
  Tensor k = Tensor::randn({32, 120, 72}, rng);
  Tensor v = Tensor::randn({32, 120, 72}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor out = fused_multi_head_attention(q, k, v, 4);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_FusedAttentionForward)->Unit(benchmark::kMillisecond);

void BM_FusedAttentionLayerForward(benchmark::State& state) {
  util::Rng rng(3);
  nn::MultiHeadSelfAttention attention(72, 4, rng);
  attention.set_training(false);
  Tensor x = Tensor::randn({32, 120, 72}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor out = attention.forward(x);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_FusedAttentionLayerForward)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Fused-vs-composed eltwise rows: per-primitive tracking of the eltwise
// engine's win over the composed op chains it replaced, at the backbone's
// hottest shapes (FFN activations [B*T, ff_dim] = [3840, 144], residual/LN
// joins at hidden [3840, 72]). The composed variants are the broadcast add
// and the separate gelu pass that src/ still offers as general ops.
// ---------------------------------------------------------------------------

void BM_BiasAddFused(benchmark::State& state) {
  util::Rng rng(7);
  Tensor x = Tensor::randn({3840, 144}, rng);
  Tensor bias = Tensor::randn({144}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor y = eltwise::bias_add(x, bias);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_BiasAddFused);

void BM_BiasAddComposed(benchmark::State& state) {
  util::Rng rng(7);
  Tensor x = Tensor::randn({3840, 144}, rng);
  Tensor bias = Tensor::randn({144}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor y = add(x, bias);  // generic broadcast odometer
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_BiasAddComposed);

void BM_BiasGeluFused(benchmark::State& state) {
  util::Rng rng(8);
  Tensor x = Tensor::randn({3840, 144}, rng);
  Tensor bias = Tensor::randn({144}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor y = eltwise::bias_gelu(x, bias);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_BiasGeluFused);

void BM_BiasGeluComposed(benchmark::State& state) {
  util::Rng rng(8);
  Tensor x = Tensor::randn({3840, 144}, rng);
  Tensor bias = Tensor::randn({144}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    // Two passes + an intermediate tensor.
    Tensor y = eltwise::bias_gelu(add(x, bias), Tensor());
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_BiasGeluComposed);

void BM_ResidualLayerNormFused(benchmark::State& state) {
  util::Rng rng(9);
  Tensor x = Tensor::randn({3840, 72}, rng);
  Tensor r = Tensor::randn({3840, 72}, rng);
  Tensor gamma = Tensor::ones({72});
  Tensor beta = Tensor::zeros({72});
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor y = eltwise::residual_layer_norm(x, r, gamma, beta);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_ResidualLayerNormFused);

void BM_BackboneForward(benchmark::State& state) {
  models::BackboneConfig config;  // paper size
  config.input_channels = 6;
  models::LimuBertBackbone backbone(config);
  backbone.set_training(false);
  util::Rng rng(4);
  Tensor x = Tensor::randn({static_cast<std::int64_t>(state.range(0)), 120, 6}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor h = backbone.encode(x);
    benchmark::DoNotOptimize(h.data().data());
  }
}
BENCHMARK(BM_BackboneForward)->Arg(1)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_BackboneTrainStep(benchmark::State& state) {
  models::BackboneConfig config;
  config.input_channels = 6;
  models::LimuBertBackbone backbone(config);
  models::ReconstructionHead head(config.hidden_dim, 6, 1);
  util::Rng rng(5);
  Tensor x = Tensor::randn({32, 120, 6}, rng);
  for (auto _ : state) {
    backbone.zero_grad();
    head.zero_grad();
    Tensor loss = mse(head.forward(backbone.encode(x)), x);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_BackboneTrainStep)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_GruClassifierForward(benchmark::State& state) {
  models::ClassifierConfig config;  // input 72, hidden 64
  models::GruClassifier classifier(config);
  classifier.set_training(false);
  util::Rng rng(6);
  Tensor h = Tensor::randn({32, 120, 72}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor logits = classifier.forward(h);
    benchmark::DoNotOptimize(logits.data().data());
  }
}
BENCHMARK(BM_GruClassifierForward)->Unit(benchmark::kMillisecond);

// One fine-tuning step of the classifier alone: forward, cross-entropy and
// backward over a batch of 32 detached backbone outputs.
void BM_GruClassifierTrainStep(benchmark::State& state) {
  models::ClassifierConfig config;  // input 72, hidden 64
  models::GruClassifier classifier(config);
  util::Rng rng(6);
  Tensor h = Tensor::randn({32, 120, 72}, rng);
  std::vector<std::int64_t> labels(32);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i) % config.num_classes;
  }
  for (auto _ : state) {
    classifier.zero_grad();
    Tensor loss = cross_entropy(classifier.forward(h), labels);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_GruClassifierTrainStep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();  // the gate GEMMs run on the pool

// ---- int8 vs fp32 GEMM at the serve shapes --------------------------------
// One window through the backbone/classifier is a run of skinny GEMMs: 120
// rows (timesteps) against 72-to-192-wide weight panels. These rows put the
// int8 kernels and the fp32 matmul side by side at exactly those shapes so
// BASELINES.md can quote per-kernel speedups instead of square-matrix proxies.
// They time wall clock (UseRealTime): the products split across the thread
// pool, and the calling thread's CPU time would leave the workers' share out
// of items_per_second.

struct ServeShape {
  std::int64_t m, k, n;
  const char* what;
};

constexpr ServeShape kServeShapes[] = {
    {120, 72, 72, "attn-proj"},      // attention q/k/v/out projections
    {120, 72, 144, "ff1"},           // transformer feed-forward expand
    {120, 144, 72, "ff2"},           // transformer feed-forward contract
    {120, 72, 192, "gru-input-proj"} // GRU stacked r/z/n input projection
};

// Not a serve shape: a deep-K square where the int8 kernels are ALU-bound
// rather than load/call-overhead-bound like the skinny serve tiles, so the
// per-kernel instruction-count difference (vpdpbusd fuses the
// maddubs+madd+add triple) actually shows up in the row.
constexpr ServeShape kProbeShapes[] = {{384, 384, 384, "alu-bound-probe"}};

void BM_MatmulServeShape(benchmark::State& state) {
  const ServeShape& s = kServeShapes[state.range(0)];
  util::Rng rng(11);
  Tensor a = Tensor::randn({s.m, s.k}, rng);
  Tensor b = Tensor::randn({s.k, s.n}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor c = matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * s.m * s.k * s.n);
  state.SetLabel(std::string(s.what) + " fp32 " + std::to_string(s.m) + "x" +
                 std::to_string(s.k) + "x" + std::to_string(s.n));
}
BENCHMARK(BM_MatmulServeShape)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->UseRealTime();

// Registered at runtime, one row per (shape, available int8 kernel), so the
// kernel name lands in the benchmark name and hosts without VNNI simply emit
// fewer rows instead of failing.
void run_gemm_s8_shape(benchmark::State& state, const ServeShape& s,
                       gemm::Int8Kernel kernel) {
  // 7-bit activation codes so the maddubs kernel measures the same workload
  // as the VNNI/scalar rows (it rejects full 8-bit input by contract).
  std::vector<std::uint8_t> a(static_cast<std::size_t>(s.m * s.k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(s.k * s.n));
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::uint8_t>(1 + i % 127);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::int8_t>(static_cast<int>(i % 255) - 127);
  }
  const gemm::PackedB8 packed = gemm::pack_b8(b.data(), s.k, s.n);
  std::vector<std::int32_t> c(static_cast<std::size_t>(s.m * s.n));
  for (auto _ : state) {
    gemm::gemm_s8(a.data(), s.k, packed, c.data(), s.n, s.m, kernel);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * s.m * s.k * s.n);
  state.SetLabel(std::string(s.what) + " int8 " + std::to_string(s.m) + "x" +
                 std::to_string(s.k) + "x" + std::to_string(s.n));
}

void register_gemm_s8_serve_rows() {
  for (const gemm::Int8Kernel kernel : gemm::available_int8_kernels()) {
    const std::string kname = gemm::int8_kernel_name(kernel);
    for (const ServeShape& s : kServeShapes) {
      const std::string name = "BM_GemmS8ServeShape/" + std::to_string(s.m) +
                               "x" + std::to_string(s.k) + "x" +
                               std::to_string(s.n) + "/kernel:" + kname;
      benchmark::RegisterBenchmark(
          name.c_str(), [&s, kernel](benchmark::State& state) {
            run_gemm_s8_shape(state, s, kernel);
          })
          ->UseRealTime();
    }
    for (const ServeShape& s : kProbeShapes) {
      const std::string name = "BM_GemmS8Probe/" + std::to_string(s.m) + "x" +
                               std::to_string(s.k) + "x" + std::to_string(s.n) +
                               "/kernel:" + kname;
      benchmark::RegisterBenchmark(
          name.c_str(), [&s, kernel](benchmark::State& state) {
            run_gemm_s8_shape(state, s, kernel);
          })
          ->UseRealTime();
    }
  }
}

// ---- stream preprocessing ------------------------------------------------
// data::preprocess_window at the paper geometry: one 6 s window of 6-axis
// samples at 100 Hz (600 x 6 raw floats) block-averaged to 20 Hz (120 x 6),
// one row per eltwise kernel, since the block average dispatches through the
// eltwise table.

void run_preprocess_window(benchmark::State& state, eltwise::Kernel kernel) {
  constexpr std::int64_t kChannels = 6;
  constexpr std::int64_t kRawRows = 600;
  util::Rng rng(13);
  std::vector<float> raw(static_cast<std::size_t>(kRawRows * kChannels));
  for (float& v : raw) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  const eltwise::ForceKernelGuard pin(kernel);
  for (auto _ : state) {
    std::vector<float> window =
        data::preprocess_window(raw, kChannels, 100.0, 20.0);
    benchmark::DoNotOptimize(window.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRawRows * kChannels);
}

void register_preprocess_rows() {
  for (const eltwise::Kernel kernel : eltwise::available_kernels()) {
    const std::string name =
        "BM_PreprocessWindow/600x6/kernel:" + eltwise::kernel_name(kernel);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [kernel](benchmark::State& state) {
                                   run_preprocess_window(state, kernel);
                                 })
        ->UseRealTime();
  }
}

// ---- stream ring -----------------------------------------------------------
// One window of stream::Session work at perfbench's `paper` geometry: 16
// sessions (100 Hz sources, 120-sample windows at 20 Hz, hop 60, 900-slot
// rings), primed with all but the last hop of a window. Each iteration
// pushes one 300-sample hop into the next session, round-robin, and polls
// the window it completes. Before its push, the iteration moves that hop's
// timestamps one hop on (300 adds, also timed), so every session's stream
// stays gap-free and in order however many iterations run.

void BM_StreamWindow(benchmark::State& state) {
  constexpr std::size_t kSessions = 16;
  constexpr std::int64_t kPeriodUs = 10000;  // 100 Hz
  stream::SessionConfig config;
  config.window_length = 120;
  config.hop = 60;
  config.source_rate_hz = 100.0;
  config.target_hz = 20.0;
  config.ring_capacity = 900;
  std::vector<std::unique_ptr<stream::Session>> sessions;
  for (std::size_t i = 0; i < kSessions; ++i) {
    sessions.push_back(std::make_unique<stream::Session>("s", config));
  }
  const std::int64_t hop = sessions.front()->raw_hop();        // 300
  const std::int64_t window = sessions.front()->raw_window();  // 600
  // The last hop of each session's first window is kept, one hop back.
  util::Rng rng(17);
  std::vector<std::vector<stream::Sample>> hops(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    for (std::int64_t j = 0; j < window; ++j) {
      stream::Sample sample;
      sample.ts_us = j * kPeriodUs;
      for (float& v : sample.v) v = static_cast<float>(rng.uniform(-2.0, 2.0));
      if (j < window - hop) {
        sessions[i]->push(sample);
      } else {
        sample.ts_us -= hop * kPeriodUs;
        hops[i].push_back(sample);
      }
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    stream::Session& session = *sessions[next];
    std::vector<stream::Sample>& samples = hops[next];
    next = (next + 1) % kSessions;
    for (stream::Sample& sample : samples) sample.ts_us += hop * kPeriodUs;
    for (const stream::Sample& sample : samples) session.push(sample);
    std::vector<stream::SealedWindow> sealed = session.poll();
    benchmark::DoNotOptimize(sealed.data());
    benchmark::ClobberMemory();
  }
  std::uint64_t windows = 0;
  for (const auto& session : sessions) {
    windows += session->stats().windows_sealed;
  }
  if (windows != static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a hop sealed no window");
  }
  state.SetItemsProcessed(state.iterations() * hop);
}
BENCHMARK(BM_StreamWindow)->Name("BM_StreamWindow/paper")->UseRealTime();

// ---- seeded draws ----------------------------------------------------------
// One util::Rng draw per iteration, and one 60 s, 100 Hz
// stream::synthetic_trace: perfbench's per-session set-up unit (6,000
// samples, 36,000 normal draws and sines), so `stream.trace_s` is about
// this row times the session count.

void BM_RngUniform(benchmark::State& state) {
  util::Rng rng(21);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform(-1.0, 1.0));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniform)->UseRealTime();

void BM_RngNormal(benchmark::State& state) {
  util::Rng rng(22);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal(0.0, 0.05));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNormal)->UseRealTime();

void BM_SyntheticTrace(benchmark::State& state) {
  for (auto _ : state) {
    stream::ReplayTrace trace = stream::synthetic_trace("s", 23, 60.0, 100.0);
    benchmark::DoNotOptimize(trace.samples.data());
  }
  state.SetItemsProcessed(state.iterations() * 6000);
}
BENCHMARK(BM_SyntheticTrace)
    ->Name("BM_SyntheticTrace/60s")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  register_gemm_s8_serve_rows();
  register_preprocess_rows();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
