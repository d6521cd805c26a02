// int8 GEMM driver: runtime kernel dispatch, B prepacking, and the scalar
// reference. Unlike the fp32 driver there is no KC/NC cache blocking: the
// serve-path shapes keep a full packed B panel (ceil(K/4)*32 bytes, ~4 KiB at
// K=512) resident in L1, and skipping the blocking keeps the accumulation
// order trivially fixed. Threads split only the M dimension; integer math
// makes every split bit-identical anyway.
#include "tensor/gemm/gemm_s8.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/gemm/m_split.hpp"
#include "tensor/gemm/microkernel_s8.hpp"

namespace saga::gemm {

namespace {

using detail::kKU8;
using detail::kMR8;
using detail::kNR8;

// Priority table; the implementation is the SIMD micro-kernel, and
// kScalar's nullptr selects scalar_range. The raw VNNI CPUID bits are paired
// with the feature whose builtin probe covers the OS register-state check:
// AVX2 (YMM) for the VEX kernel, AVX512VL (opmask + ZMM) for the EVEX one.
using KernelTable = util::KernelTable<Int8Kernel, detail::Int8MicroKernelFn>;
const KernelTable& kernels() {
  using util::cpu_has;
  using util::CpuFeature;
  static const KernelTable table{
      {Int8Kernel::kScalar, "scalar", nullptr, true},
      {Int8Kernel::kAvx2, "avx2-maddubs", detail::avx2_s8_microkernel(),
       cpu_has(CpuFeature::kAvx2)},
      {Int8Kernel::kAvxVnni, "avx-vnni", detail::avxvnni_s8_microkernel(),
       cpu_has(CpuFeature::kAvxVnni) && cpu_has(CpuFeature::kAvx2)},
      {Int8Kernel::kAvx512Vnni, "avx512-vnni",
       detail::avx512vnni_s8_microkernel(),
       cpu_has(CpuFeature::kAvx512Vnni) && cpu_has(CpuFeature::kAvx512Vl)}};
  return table;
}

// Scalar reference: exact triple loop reading B through the packed layout
// (so a packing bug cannot hide behind a matching reference). Accumulation
// order is irrelevant — integer addition is associative — which is what lets
// this be bit-identical to the SIMD kernel.
void scalar_range(const std::uint8_t* a, std::int64_t lda, const PackedB8& b,
                  std::int32_t* c, std::int64_t ldc, std::int64_t m0,
                  std::int64_t m1) {
  const std::int64_t groups = (b.k + kKU8 - 1) / kKU8;
  for (std::int64_t i = m0; i < m1; ++i) {
    const std::uint8_t* arow = a + i * lda;
    std::int32_t* crow = c + i * ldc;
    for (std::int64_t jp = 0; jp < b.n; jp += kNR8) {
      const std::int8_t* panel = b.data.data() + (jp / kNR8) * groups * kNR8 * kKU8;
      const std::int64_t nr = std::min(kNR8, b.n - jp);
      for (std::int64_t jc = 0; jc < nr; ++jc) {
        std::int32_t acc = 0;
        for (std::int64_t p = 0; p < b.k; ++p) {
          const std::int8_t bv =
              panel[(p / kKU8) * kNR8 * kKU8 + jc * kKU8 + p % kKU8];
          acc += static_cast<std::int32_t>(arow[p]) *
                 static_cast<std::int32_t>(bv);
        }
        crow[jp + jc] = acc;
      }
    }
  }
}

// SIMD path over a row range (shared by the maddubs and both vpdpbusd
// kernels — they consume the same panel layout). The kernel reads A in
// 4-byte k-groups, so rows whose stride cannot cover the padded depth are
// repacked into a padded per-thread buffer first (pad bytes multiply the
// zero-padded B tail, so their value is irrelevant).
void simd_range(const std::uint8_t* a, std::int64_t lda, const PackedB8& b,
                std::int32_t* c, std::int64_t ldc, std::int64_t m0,
                std::int64_t m1, detail::Int8MicroKernelFn kern) {
  const std::int64_t groups = (b.k + kKU8 - 1) / kKU8;
  const std::int64_t k_padded = groups * kKU8;
  thread_local std::vector<std::uint8_t> a_pad;
  const std::uint8_t* a_base = a + m0 * lda;
  std::int64_t a_stride = lda;
  if (lda < k_padded) {
    const std::int64_t rows = m1 - m0;
    if (static_cast<std::int64_t>(a_pad.size()) < rows * k_padded) {
      a_pad.resize(static_cast<std::size_t>(rows * k_padded));
    }
    for (std::int64_t i = 0; i < rows; ++i) {
      std::uint8_t* dst = a_pad.data() + i * k_padded;
      std::copy(a + (m0 + i) * lda, a + (m0 + i) * lda + b.k, dst);
      std::fill(dst + b.k, dst + k_padded, std::uint8_t{0});
    }
    a_base = a_pad.data();
    a_stride = k_padded;
  }
  for (std::int64_t ir = m0; ir < m1; ir += kMR8) {
    const std::int64_t mr = std::min(kMR8, m1 - ir);
    const std::uint8_t* a_rows = a_base + (ir - m0) * a_stride;
    for (std::int64_t jp = 0; jp < b.n; jp += kNR8) {
      const std::int8_t* panel = b.data.data() + (jp / kNR8) * groups * kNR8 * kKU8;
      const std::int64_t nr = std::min(kNR8, b.n - jp);
      kern(groups, a_rows, a_stride, panel, c + ir * ldc + jp, ldc, mr, nr);
    }
  }
}

// Only the maddubs kernel has the 7-bit restriction (s16 intermediates);
// scalar and both vpdpbusd kernels are exact over the full u8 range, so the
// check runs only when dispatch actually lands on kAvx2.
void check_a_range(const std::uint8_t* a, std::int64_t lda, std::int64_t m,
                   std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i) {
    const std::uint8_t* row = a + i * lda;
    for (std::int64_t p = 0; p < k; ++p) {
      if (row[p] > 127) {
        throw std::invalid_argument(
            "gemm_s8: A value " + std::to_string(int{row[p]}) +
            " exceeds the 7-bit activation range (0..127); the maddubs "
            "kernel's int16 intermediates would saturate (see gemm_s8.hpp)");
      }
    }
  }
}

}  // namespace

std::vector<Int8Kernel> available_int8_kernels() {
  return kernels().available();
}

std::string int8_kernel_name(Int8Kernel kernel) {
  return kernels().name(kernel);
}

Int8Kernel resolved_int8_kernel() { return kernels().resolve(); }

bool int8_kernel_allows_8bit(Int8Kernel kernel) {
  return kernels().resolve(kernel) != Int8Kernel::kAvx2;
}

ForceInt8KernelGuard::ForceInt8KernelGuard(Int8Kernel kernel)
    : pin_(kernels(), kernel) {}

PackedB8 pack_b8(const std::int8_t* b, std::int64_t k, std::int64_t n) {
  PackedB8 packed;
  packed.k = k;
  packed.n = n;
  const std::int64_t groups = (k + kKU8 - 1) / kKU8;
  const std::int64_t panels = (n + kNR8 - 1) / kNR8;
  packed.data.assign(static_cast<std::size_t>(panels * groups * kNR8 * kKU8),
                     std::int8_t{0});
  packed.col_sums.assign(static_cast<std::size_t>(n), 0);
  for (std::int64_t jp = 0; jp < n; jp += kNR8) {
    std::int8_t* panel = packed.data.data() + (jp / kNR8) * groups * kNR8 * kKU8;
    const std::int64_t cols = std::min(kNR8, n - jp);
    for (std::int64_t p = 0; p < k; ++p) {
      std::int8_t* group = panel + (p / kKU8) * kNR8 * kKU8;
      for (std::int64_t c = 0; c < cols; ++c) {
        const std::int8_t value = b[p * n + jp + c];
        group[c * kKU8 + p % kKU8] = value;
        packed.col_sums[static_cast<std::size_t>(jp + c)] += value;
      }
    }
  }
  return packed;
}

void gemm_s8(const std::uint8_t* a, std::int64_t lda, const PackedB8& b,
             std::int32_t* c, std::int64_t ldc, std::int64_t m,
             Int8Kernel kernel, bool parallel) {
  if (m <= 0 || b.n <= 0) return;
  if (b.k <= 0) {
    for (std::int64_t i = 0; i < m; ++i) {
      std::fill(c + i * ldc, c + i * ldc + b.n, 0);
    }
    return;
  }
  const detail::Int8MicroKernelFn kern = kernels().impl(kernel);
  if (kernels().resolve(kernel) == Int8Kernel::kAvx2) {
    check_a_range(a, lda, m, b.k);
  }
  detail::split_m(m, m * b.n * b.k, parallel,
                  [&](std::int64_t lo, std::int64_t hi) {
                    if (kern == nullptr) {
                      scalar_range(a, lda, b, c, ldc, lo, hi);
                    } else {
                      simd_range(a, lda, b, c, ldc, lo, hi, kern);
                    }
                  });
}

}  // namespace saga::gemm
