// The one 8x8 int8 micro-kernel body. The SIMD int8 kernels share the panel
// layout (microkernel_s8.hpp) and differ only in the row update — per k-group,
// add the four u8*s8 byte products of each s32 lane to the accumulator —
// which each TU (kernel_s8_avx2/avxvnni/avx512vnni.cpp) supplies as a functor
// compiled under its own ISA flags.
//
// Everything here has internal linkage. An external-linkage inline compiled
// under -mavx512f in one TU and -mavx2 in another would be two definitions
// of one function, and the linker could keep the EVEX copy for every caller:
// SIGILL on AVX2-only hosts. Include only from those TUs.
#pragma once

#include <immintrin.h>

#include <cstring>

#include "tensor/gemm/microkernel_s8.hpp"

namespace saga::gemm::detail {
namespace {

// Broadcast the 4-byte activation quad at `p` into every 32-bit lane.
inline __m256i bcast_quad(const std::uint8_t* p) {
  std::int32_t quad;
  std::memcpy(&quad, p, sizeof(quad));
  return _mm256_set1_epi32(quad);
}

inline void store_rows(const __m256i* acc, std::int32_t* c, std::int64_t ldc,
                       std::int64_t mr, std::int64_t nr) {
  if (nr == kNR8) {
    for (std::int64_t r = 0; r < mr; ++r) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + r * ldc), acc[r]);
    }
    return;
  }
  alignas(32) std::int32_t buf[kNR8];
  for (std::int64_t r = 0; r < mr; ++r) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf), acc[r]);
    std::int32_t* crow = c + r * ldc;
    for (std::int64_t j = 0; j < nr; ++j) crow[j] = buf[j];
  }
}

/// The Int8MicroKernelFn each SIMD TU hands the driver.
template <class RowUpdate>
void kernel_s8_8x8(std::int64_t kc_groups, const std::uint8_t* a,
                   std::int64_t lda, const std::int8_t* b_panel,
                   std::int32_t* c, std::int64_t ldc, std::int64_t mr,
                   std::int64_t nr) {
  const RowUpdate update{};
  if (mr < kMR8) {
    // Ragged M tail (at most once per row range): the array form is fine.
    __m256i acc[kMR8];
    for (std::int64_t r = 0; r < mr; ++r) acc[r] = _mm256_setzero_si256();
    for (std::int64_t g = 0; g < kc_groups; ++g) {
      const __m256i bvec = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(b_panel + g * kNR8 * kKU8));
      for (std::int64_t r = 0; r < mr; ++r) {
        acc[r] = update(acc[r], bcast_quad(a + r * lda + g * kKU8), bvec);
      }
    }
    store_rows(acc, c, ldc, mr, nr);
    return;
  }
  // Full-height tile: eight NAMED accumulators so they live in ymm registers
  // across the whole k sweep. With a __m256i acc[8] array GCC keeps the
  // accumulators on the stack, and because vpdpbusd both reads and writes
  // its accumulator operand every update round-trips through a
  // store-forward — measured ~40% slower on the VNNI kernels. Eight
  // independent register chains also hide the update's multi-cycle latency.
  __m256i c0 = _mm256_setzero_si256();
  __m256i c1 = _mm256_setzero_si256();
  __m256i c2 = _mm256_setzero_si256();
  __m256i c3 = _mm256_setzero_si256();
  __m256i c4 = _mm256_setzero_si256();
  __m256i c5 = _mm256_setzero_si256();
  __m256i c6 = _mm256_setzero_si256();
  __m256i c7 = _mm256_setzero_si256();
  for (std::int64_t g = 0; g < kc_groups; ++g) {
    const __m256i bvec = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b_panel + g * kNR8 * kKU8));
    const std::uint8_t* ag = a + g * kKU8;
    c0 = update(c0, bcast_quad(ag), bvec);
    c1 = update(c1, bcast_quad(ag + lda), bvec);
    c2 = update(c2, bcast_quad(ag + 2 * lda), bvec);
    c3 = update(c3, bcast_quad(ag + 3 * lda), bvec);
    c4 = update(c4, bcast_quad(ag + 4 * lda), bvec);
    c5 = update(c5, bcast_quad(ag + 5 * lda), bvec);
    c6 = update(c6, bcast_quad(ag + 6 * lda), bvec);
    c7 = update(c7, bcast_quad(ag + 7 * lda), bvec);
  }
  const __m256i acc[kMR8] = {c0, c1, c2, c3, c4, c5, c6, c7};
  store_rows(acc, c, ldc, kMR8, nr);
}

}  // namespace
}  // namespace saga::gemm::detail
