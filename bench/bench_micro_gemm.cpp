// Micro-benchmarks for the blocked/packed GEMM unit (google-benchmark).
//
// Each shape runs once per dispatchable kernel (scalar fallback, AVX2 when
// the host has it) so the speedup ratio is visible in one report; shapes are
// the square sweep from BASELINES.md plus the real model products (backbone
// d_model/ffn linears, per-head attention QK^T / PV).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/gemm/gemm.hpp"
#include "util/rng.hpp"

namespace {

using saga::gemm::Kernel;

std::vector<float> random_vec(std::size_t size, saga::util::Rng& rng) {
  std::vector<float> v(size);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// Kernel encoding for benchmark args: 0 = scalar, 1 = avx2.
Kernel arg_kernel(std::int64_t arg) {
  return arg == 1 ? Kernel::kAvx2 : Kernel::kScalar;
}

bool kernel_available(Kernel kernel) {
  for (const Kernel k : saga::gemm::available_kernels()) {
    if (k == kernel) return true;
  }
  return false;
}

void run_gemm_bench(benchmark::State& state, std::int64_t m, std::int64_t n,
                    std::int64_t k, bool trans_b, Kernel kernel) {
  if (!kernel_available(kernel)) {
    state.SkipWithError("kernel not available on this host");
    return;
  }
  saga::util::Rng rng(1);
  const auto a = random_vec(static_cast<std::size_t>(m * k), rng);
  const auto b = random_vec(static_cast<std::size_t>(k * n), rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    saga::gemm::gemm(a.data(), b.data(), c.data(), m, n, k, false, trans_b,
                     /*accumulate=*/false, kernel);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
  state.SetLabel(saga::gemm::kernel_name(kernel));
}

// Square sweep: BM_GemmSquare/<size>/<kernel>.
void BM_GemmSquare(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  run_gemm_bench(state, n, n, n, false, arg_kernel(state.range(1)));
}
BENCHMARK(BM_GemmSquare)
    ->ArgsProduct({{64, 128, 256, 384, 512}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// Model shapes (paper-size backbone: d_model 72, ffn 144, T=120, 4 heads of
// 18; batch 32 folds into the row dimension for the linears).
void BM_GemmQkvProj(benchmark::State& state) {  // [B*T, D] x [D, D]
  run_gemm_bench(state, 3840, 72, 72, false, arg_kernel(state.range(0)));
}
BENCHMARK(BM_GemmQkvProj)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_GemmFfn(benchmark::State& state) {  // [B*T, D] x [D, FFN]
  run_gemm_bench(state, 3840, 144, 72, false, arg_kernel(state.range(0)));
}
BENCHMARK(BM_GemmFfn)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_GemmAttentionScores(benchmark::State& state) {  // Q x K^T per head
  run_gemm_bench(state, 120, 120, 18, true, arg_kernel(state.range(0)));
}
BENCHMARK(BM_GemmAttentionScores)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_GemmAttentionContext(benchmark::State& state) {  // P x V per head
  run_gemm_bench(state, 120, 18, 120, false, arg_kernel(state.range(0)));
}
BENCHMARK(BM_GemmAttentionContext)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
