// AVX-VNNI int8 micro-kernel: the shared 8x8 body (kernel_s8_body.hpp) with
// the VEX `vpdpbusd` row update, for CPUs with AVX-VNNI but no AVX512 state
// (hybrid client parts). vpdpbusd accumulates each k-group's four u8*s8
// products straight into s32 — no s16 intermediate to saturate, so full
// 8-bit A values (0..255) stay exact. Compiled with -mavx2 -mavxvnni (see
// CMakeLists); dispatched only after a runtime CPUID check.
#include "tensor/gemm/microkernel_s8.hpp"

#if defined(__AVXVNNI__)

#include "tensor/gemm/kernel_s8_body.hpp"

namespace saga::gemm::detail {

namespace {

struct DpbusdVex {
  __m256i operator()(__m256i acc, __m256i avec, __m256i bvec) const {
    return _mm256_dpbusd_avx_epi32(acc, avec, bvec);
  }
};

}  // namespace

Int8MicroKernelFn avxvnni_s8_microkernel() {
  return &kernel_s8_8x8<DpbusdVex>;
}

}  // namespace saga::gemm::detail

#else  // build without AVX-VNNI support for this file

namespace saga::gemm::detail {

Int8MicroKernelFn avxvnni_s8_microkernel() { return nullptr; }

}  // namespace saga::gemm::detail

#endif
