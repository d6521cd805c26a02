// saga::gemm — the single-precision GEMM hot path behind matmul/bmm/attention.
//
// C[M,N] (+)= A'[M,K] x B'[K,N], where A' is the stored matrix `a` transposed
// when `trans_a` (likewise B'). All four storage layouts funnel through
// packing into one contiguous micro-kernel:
//
//   driver:   MC/KC/NC cache blocking, per-thread packed A/B panels
//   kernels:  AVX2+FMA 6x16 register tile (runtime CPUID dispatch) with the
//             scalar kernel retained as the portable fallback
//
// Determinism contract: for a fixed kernel, results are bit-identical across
// repeated runs and across thread counts — the M dimension is the only axis
// split across threads, and every output element's accumulation order depends
// only on the fixed KC blocking, never on which thread/tile computed it.
// Different kernels (scalar vs AVX2) agree only to rounding.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace saga::gemm {

/// Kernel selector. `kAuto` resolves at runtime (util/dispatch.hpp): the
/// AVX2+FMA kernel when the CPU and build support it and SAGA_FORCE_SCALAR
/// is unset, else the portable scalar fallback.
///   kScalar — the pre-blocking loop-order code, retained as the portable
///             fallback (no packing; fastest scalar choice on hosts whose
///             compiler auto-vectorizes streaming loops)
///   kAvx2   — blocked/packed driver with the AVX2+FMA 6x16 kernel
enum class Kernel { kAuto, kScalar, kAvx2 };

/// Kernels `gemm` will accept on this host, scalar first, honoring
/// SAGA_FORCE_SCALAR; test harnesses iterate this list to reference-check
/// every dispatchable path.
std::vector<Kernel> available_kernels();

/// Human-readable name of `kernel`, with kAuto resolved to the kernel the
/// dispatcher would pick for a large shape ("avx2-6x16" or "scalar").
std::string kernel_name(Kernel kernel = Kernel::kAuto);

/// Strided GEMM. `lda/ldb/ldc` are leading dimensions (row strides) of the
/// *stored* matrices: `a` is stored [M,K] (lda >= K), or [K,M] (lda >= M)
/// when trans_a; `b` is stored [K,N] / [N,K]; `c` is always [M,N] with
/// ldc >= N. When `accumulate`, adds into C instead of overwriting. Strides
/// let attention run per-head products in place on [B,T,D] slabs.
/// `parallel=false` forces the single-threaded path (callers that already
/// parallelize an outer loop, and determinism tests).
/// Requesting a kernel not in available_kernels() throws std::runtime_error.
void gemm(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
          float* c, std::int64_t ldc, std::int64_t m, std::int64_t n,
          std::int64_t k, bool trans_a, bool trans_b, bool accumulate,
          Kernel kernel = Kernel::kAuto, bool parallel = true);

/// Contiguous-storage convenience overload: lda/ldb/ldc are derived from the
/// logical shape (stored [M,K] or [K,M] for A, etc.).
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
          bool accumulate, Kernel kernel = Kernel::kAuto, bool parallel = true);

}  // namespace saga::gemm
