// Internal contract between the gemm driver and its micro-kernels. Not part
// of the public API — include only from src/tensor/gemm/*.cpp.
//
// Panel layout (produced by the driver's packers, consumed by the kernels):
//   A panel: kc steps, each step kMR consecutive floats A'[i0+r, pc+p]
//            (rows beyond the matrix edge are zero-padded)
//   B panel: kc steps, each step kNR consecutive floats B'[pc+p, j0+c]
//            (columns beyond the edge are zero-padded)
//
// A kernel computes C[0:mr, 0:nr] += sum_p a_step[r] * b_step[c] over the kc
// steps. Edge tiles (mr < kMR or nr < kNR) must perform the same per-element
// arithmetic sequence as full tiles (accumulate the padded tile in registers
// or a local buffer, then add only the valid region to C) so that an output
// element's value never depends on its position within a tile — that is what
// makes results bit-identical across thread counts and M-splits.
#pragma once

#include <cstdint>

namespace saga::gemm::detail {

inline constexpr std::int64_t kMR = 6;   // micro-tile rows (register tile)
inline constexpr std::int64_t kNR = 16;  // micro-tile cols (2 x 8-wide ymm)

using MicroKernelFn = void (*)(std::int64_t kc, const float* a_panel,
                               const float* b_panel, float* c,
                               std::int64_t ldc, std::int64_t mr,
                               std::int64_t nr);

/// AVX2+FMA kernel, or nullptr when this translation unit was built without
/// AVX2 support (the driver must also check CPUID before calling it).
MicroKernelFn avx2_microkernel();

}  // namespace saga::gemm::detail
