// AVX512-VNNI int8 micro-kernel: the shared 8x8 body (kernel_s8_body.hpp)
// with the EVEX `vpdpbusd` row update at 256 bits (AVX512VNNI+VL), exact over
// the full 8-bit A range like the VEX flavor. Staying at 256 bits keeps the
// micro-tile and packing shared with every other int8 kernel and avoids
// 512-bit frequency licensing at Saga's small serve shapes. Compiled with
// -mavx512f -mavx512vl -mavx512vnni; dispatched after a runtime CPUID check.
#include "tensor/gemm/microkernel_s8.hpp"

#if defined(__AVX512VNNI__) && defined(__AVX512VL__)

#include "tensor/gemm/kernel_s8_body.hpp"

namespace saga::gemm::detail {

namespace {

struct DpbusdEvex {
  __m256i operator()(__m256i acc, __m256i avec, __m256i bvec) const {
    return _mm256_dpbusd_epi32(acc, avec, bvec);
  }
};

}  // namespace

Int8MicroKernelFn avx512vnni_s8_microkernel() {
  return &kernel_s8_8x8<DpbusdEvex>;
}

}  // namespace saga::gemm::detail

#else  // build without AVX512-VNNI support for this file

namespace saga::gemm::detail {

Int8MicroKernelFn avx512vnni_s8_microkernel() { return nullptr; }

}  // namespace saga::gemm::detail

#endif
