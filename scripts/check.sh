#!/usr/bin/env bash
# Tier-1 verification: the exact command CI, reviewers, and the ROADMAP use.
# Run from anywhere; builds into <repo>/build.
#
#   ./scripts/check.sh            release build + full ctest suite
#   ./scripts/check.sh --strict   same, with warnings-as-errors into
#                                 <repo>/build-strict (the CI `strict` job)
#   ./scripts/check.sh --tsan     ThreadSanitizer build into <repo>/build-tsan,
#                                 running the serve + stream concurrency
#                                 suites (SPSC ring producer/consumer pair,
#                                 pump-thread handoff), the thread pool itself
#                                 (test_util: concurrent parallel_for callers)
#                                 plus the view-aliasing, fused-GRU, fp32 GEMM
#                                 and int8-quant suites (shared Storage
#                                 buffers under the pooled matmul backward;
#                                 the GEMMs' M-split over the pool; the full
#                                 suite under TSan is too slow)
#   ./scripts/check.sh --asan     AddressSanitizer build into <repo>/build-asan,
#                                 running the tensor-stack + serve + stream +
#                                 preprocess + quant + util suites — the
#                                 eltwise/gemm/gemm_s8 kernel edge tiles, the
#                                 pool's completion state on the caller's
#                                 stack, the MT19937-64 twist's index
#                                 arithmetic over its 312-word state
#                                 (test_util's engine, oracle and digest
#                                 tests), the NoGrad tape-skip lifetimes, the
#                                 backward closures over saved buffers, the
#                                 ring's wraparound indexing and the
#                                 block-average kernel's pointer arithmetic
#                                 over a caller's span are where
#                                 use-after-free/overflow bugs would hide
#
# Both sanitizer presets also run the pinned-kernel ctest entries of the
# suites they build (<suite>_forced_scalar, test_quant_forced_7bit), so the
# scalar kernels and the 7-bit int8 serve path run under them too.
set -euo pipefail

cd "$(dirname "$0")/.."

ASAN_TARGETS=(test_eltwise test_tensor_ops test_reduce_loss test_shape_ops
  test_matmul test_attention test_nn test_serve test_views test_gru_cell
  test_stream test_preprocess test_quant test_util test_gemm_kernels)
TSAN_TARGETS=(test_serve test_views test_gru_cell test_stream test_quant
  test_eltwise test_util test_gemm_kernels)

BUILD_DIR=build
if [[ "${1:-}" == "--strict" ]]; then
  BUILD_DIR=build-strict
  cmake -B "$BUILD_DIR" -S . -DSAGA_WARNINGS_AS_ERRORS=ON
elif [[ "${1:-}" == "--tsan" ]]; then
  BUILD_DIR=build-tsan
  cmake -B "$BUILD_DIR" -S . -DSAGA_TSAN=ON -DSAGA_BUILD_BENCH=OFF \
    -DSAGA_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TSAN_TARGETS[@]}" \
    example_gemm_info
  cd "$BUILD_DIR"
  ./gemm_info
  ctest --output-on-failure \
    -R "^($(IFS='|'; echo "${TSAN_TARGETS[*]}"))(_forced_[a-z0-9_]+)?\$"
  exit 0
elif [[ "${1:-}" == "--asan" ]]; then
  BUILD_DIR=build-asan
  cmake -B "$BUILD_DIR" -S . -DSAGA_ASAN=ON -DSAGA_BUILD_BENCH=OFF \
    -DSAGA_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${ASAN_TARGETS[@]}" \
    example_gemm_info
  cd "$BUILD_DIR"
  ./gemm_info
  ctest --output-on-failure \
    -R "^($(IFS='|'; echo "${ASAN_TARGETS[*]}"))(_forced_[a-z0-9_]+)?\$"
  exit 0
else
  cmake -B "$BUILD_DIR" -S .
fi
cmake --build "$BUILD_DIR" -j "$(nproc)"
cd "$BUILD_DIR"
ctest --output-on-failure -j "$(nproc)"
# Micro-bench smoke: every Google Benchmark row runs once at a tiny budget,
# so a row that throws or crashes fails here (the binaries are absent when
# libbenchmark is not installed). A bare number is the --benchmark_min_time
# form both libbenchmark 1.7 and 1.8 accept (1.8 reads it as seconds).
for bench in ./bench_micro_*; do
  [[ -x "$bench" ]] || continue
  echo "micro-bench smoke: $bench"
  "$bench" --benchmark_min_time=0.001 > /dev/null
done
# Serve-bench smoke: one tiny setting per sweep, exercising the open-loop
# bursty arrivals, Router work stealing, and the histogram export end to
# end (capacity numbers from this run mean nothing — see docs/BASELINES.md
# for the full sweep).
SAGA_SERVE_SMOKE=1 ./bench_serve_throughput
