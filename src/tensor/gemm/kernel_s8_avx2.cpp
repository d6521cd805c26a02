// AVX2 int8 micro-kernel: the shared 8x8 body (kernel_s8_body.hpp) with the
// maddubs row update. `_mm256_maddubs_epi16` forms u8*s8 byte-pair sums in
// s16 — exact only because A is 7-bit, so |pair| <= 32258 < 32767 — and
// `_mm256_madd_epi16` against ones folds them into the s32 accumulator.
// Compiled with -mavx2 (see CMakeLists); the driver dispatches here only
// after a runtime CPUID check.
#include "tensor/gemm/microkernel_s8.hpp"

#if defined(__AVX2__)

#include "tensor/gemm/kernel_s8_body.hpp"

namespace saga::gemm::detail {

namespace {

struct MaddubsUpdate {
  __m256i ones = _mm256_set1_epi16(1);
  __m256i operator()(__m256i acc, __m256i avec, __m256i bvec) const {
    const __m256i pairs = _mm256_maddubs_epi16(avec, bvec);
    return _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
  }
};

}  // namespace

Int8MicroKernelFn avx2_s8_microkernel() {
  return &kernel_s8_8x8<MaddubsUpdate>;
}

}  // namespace saga::gemm::detail

#else  // build without AVX2 support for this file

namespace saga::gemm::detail {

Int8MicroKernelFn avx2_s8_microkernel() { return nullptr; }

}  // namespace saga::gemm::detail

#endif
