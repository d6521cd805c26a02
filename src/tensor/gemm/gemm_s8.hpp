// saga::gemm int8 path — u8 x s8 -> s32 GEMM for quantized inference.
//
// C[M,N] = A[M,K] x B[K,N], A unsigned 8-bit (quantized activations), B
// signed 8-bit (quantized weights, prepacked once per matrix at load time),
// C raw int32 accumulators. Dequantization is the caller's epilogue
// (saga::quant applies per-channel scales and folds the bias add into the
// fused eltwise path).
//
// Saturation contract: the AVX2 kernel accumulates byte-pair products with
// `_mm256_maddubs_epi16`, whose pairwise u8*s8 + u8*s8 sum saturates at
// +-32767. When that kernel runs, A is REQUIRED to hold 7-bit values
// (0..127): the worst pair is then 127*127*2 = 32258 < 32767, so no
// intermediate ever saturates and the kernel computes the exact integer
// product. The driver rejects out-of-range A with std::invalid_argument
// (only when dispatching to maddubs) rather than silently returning
// kernel-dependent results. The VNNI kernels (`vpdpbusd`, VEX and EVEX
// flavors) accumulate byte quads straight into s32 with no s16
// intermediate, so they — and the scalar reference — are exact over the
// full 8-bit A range (0..255); int8_kernel_allows_8bit() is how callers ask
// which encoding the dispatched kernel tolerates (saga::quant picks the
// activation encoding from it).
//
// Determinism contract: integer accumulation is exact, so results are
// bit-identical across kernels, thread counts, and M-splits — stronger than
// the fp32 GEMM contract (which is per-kernel only). With 8-bit A the
// maddubs kernel is excluded from that equivalence class (the driver
// refuses it); all remaining kernels stay bit-identical per encoding.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/dispatch.hpp"

namespace saga::gemm {

/// Kernel selector for the int8 path. `kAuto` resolves at runtime
/// (util/dispatch.hpp) in priority order avx512-vnni > avx-vnni >
/// avx2-maddubs > scalar, skipping kernels the CPU or build lacks; a
/// ForceInt8KernelGuard pin wins, and SAGA_FORCE_SCALAR=1 leaves only the
/// portable scalar reference.
enum class Int8Kernel { kAuto, kScalar, kAvx2, kAvxVnni, kAvx512Vnni };

/// The kernel kAuto resolves to right now (honors the current thread's
/// ForceInt8KernelGuard pin and SAGA_FORCE_SCALAR). Never kAuto.
Int8Kernel resolved_int8_kernel();

/// True when `kernel` computes exact products for full 8-bit A values
/// (0..255): every kernel except the maddubs one, whose s16 intermediates
/// saturate past 7 bits. kAuto is resolved first. saga::quant consults this
/// to pick the activation encoding.
bool int8_kernel_allows_8bit(Int8Kernel kernel = Int8Kernel::kAuto);

/// Kernels `gemm_s8` will accept on this host, scalar first, honoring
/// SAGA_FORCE_SCALAR. Always contains kScalar.
std::vector<Int8Kernel> available_int8_kernels();

/// Human-readable name of `kernel`, with kAuto resolved to the kernel the
/// dispatcher would pick ("avx512-vnni", "avx-vnni", "avx2-maddubs", or
/// "scalar").
std::string int8_kernel_name(Int8Kernel kernel = Int8Kernel::kAuto);

/// RAII pin of int8 dispatch for the current thread (util::KernelPin, as
/// eltwise::ForceKernelGuard): while alive, kAuto resolves to `kernel`.
/// Nestable; restores the previous pin on destruction. Throws
/// std::runtime_error if `kernel` is not available on this host.
class ForceInt8KernelGuard {
 public:
  explicit ForceInt8KernelGuard(Int8Kernel kernel);

 private:
  util::KernelPin<Int8Kernel> pin_;
};

/// B[K,N] prepacked for the int8 kernels (layout in microkernel_s8.hpp),
/// plus per-column sums of the signed weights — the dequantizing epilogue
/// needs sum_p B[p,n] to undo the +64 offset baked into unsigned A:
///   (sum_p (qa+64) * qb) - 64 * col_sum = sum_p qa * qb.
struct PackedB8 {
  std::int64_t k = 0;
  std::int64_t n = 0;
  std::vector<std::int8_t> data;
  std::vector<std::int32_t> col_sums;
};

/// Packs row-major `b` [K,N] once; the result is immutable and shared by
/// every subsequent gemm_s8 call (weights are packed at artifact load).
PackedB8 pack_b8(const std::int8_t* b, std::int64_t k, std::int64_t n);

/// C[M,N] = A[M,K] x B. `lda`/`ldc` are row strides of A and C. When
/// dispatch lands on the maddubs kernel, A must hold 7-bit values (see the
/// saturation contract above; violations throw std::invalid_argument); all
/// other kernels accept full 8-bit A. `parallel=false` forces the
/// single-threaded path; results are bit-identical either way. Requesting a
/// kernel not in available_int8_kernels() throws std::runtime_error.
void gemm_s8(const std::uint8_t* a, std::int64_t lda, const PackedB8& b,
             std::int32_t* c, std::int64_t ldc, std::int64_t m,
             Int8Kernel kernel = Int8Kernel::kAuto, bool parallel = true);

}  // namespace saga::gemm
