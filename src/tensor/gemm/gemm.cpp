// GEMM driver: runtime kernel dispatch, cache blocking, and panel packing.
//
// Structure (GotoBLAS-style, specialized for this codebase's shapes):
//
//   for jc in N step NC:            L3-ish block of columns
//     for pc in K step KC:          packed-B panel depth
//       pack B'[pc:pc+kc, jc:jc+nc]   (kNR-wide column panels, zero-padded)
//       for ic in M step MC:        L2 block of rows
//         pack A'[ic:ic+mc, pc:pc+kc] (kMR-high row panels, zero-padded)
//         for jr, ir in tiles:      micro-kernel on contiguous panels
//
// Threads split only the M dimension; each thread runs the full blocked loop
// over its row range with its own thread_local packed buffers. That
// duplicates B packing across threads, but keeps every output element's
// accumulation order independent of the thread count (the determinism
// contract in gemm.hpp) and needs no cross-thread synchronization.
#include "tensor/gemm/gemm.hpp"

#include <algorithm>

#include "tensor/gemm/m_split.hpp"
#include "tensor/gemm/microkernel.hpp"
#include "util/dispatch.hpp"

namespace saga::gemm {

namespace {

using detail::kMR;
using detail::kNR;

// Cache blocking. KC x kNR B-panel slices stay hot in L1 across a row sweep;
// MC x KC packed A (~72 KiB) targets L2; NC caps the per-thread packed-B
// buffer at KC*NC*4 = 384 KiB. MC is a multiple of kMR, NC of kNR.
constexpr std::int64_t kMC = 72;
constexpr std::int64_t kKC = 256;
constexpr std::int64_t kNC = 384;

// Below this many multiply-adds the kAuto path skips packing and uses the
// plain loop-order kernels, where packing overhead would dominate.
constexpr std::int64_t kDirectThreshold = 1 << 13;

// Priority table. The implementation is the micro-kernel for the blocked
// path; kScalar's nullptr selects the direct loop-order code instead.
using KernelTable = util::KernelTable<Kernel, detail::MicroKernelFn>;
const KernelTable& kernels() {
  static const KernelTable table{
      {Kernel::kScalar, "scalar", nullptr, true},
      {Kernel::kAvx2, "avx2-6x16", detail::avx2_microkernel(),
       util::cpu_has(util::CpuFeature::kAvx2) &&
           util::cpu_has(util::CpuFeature::kFma)}};
  return table;
}

// ---------------------------------------------------------------------------
// Panel packing. A'[i,p] / B'[p,j] below are the *logical* (post-transpose)
// matrices; the trans flags pick the storage indexing.
// ---------------------------------------------------------------------------

// Packs A'[i0:i0+mc, pc:pc+kc] into kMR-high row panels: panel ip holds, for
// each p, the kMR values A'[i0 + ip*kMR + r, pc + p] (r beyond mc → 0).
void pack_a(float* dst, const float* a, std::int64_t lda, bool trans_a,
            std::int64_t i0, std::int64_t mc, std::int64_t pc,
            std::int64_t kc) {
  for (std::int64_t ip = 0; ip < mc; ip += kMR) {
    const std::int64_t rows = std::min(kMR, mc - ip);
    for (std::int64_t p = 0; p < kc; ++p) {
      float* out = dst + p * kMR;
      if (trans_a) {
        const float* src = a + (pc + p) * lda + i0 + ip;
        for (std::int64_t r = 0; r < rows; ++r) out[r] = src[r];
      } else {
        const float* src = a + (i0 + ip) * lda + pc + p;
        for (std::int64_t r = 0; r < rows; ++r) out[r] = src[r * lda];
      }
      for (std::int64_t r = rows; r < kMR; ++r) out[r] = 0.0F;
    }
    dst += kc * kMR;
  }
}

// Packs B'[pc:pc+kc, j0:j0+nc] into kNR-wide column panels: panel jp holds,
// for each p, the kNR values B'[pc + p, j0 + jp*kNR + c] (c beyond nc → 0).
void pack_b(float* dst, const float* b, std::int64_t ldb, bool trans_b,
            std::int64_t pc, std::int64_t kc, std::int64_t j0,
            std::int64_t nc) {
  for (std::int64_t jp = 0; jp < nc; jp += kNR) {
    const std::int64_t cols = std::min(kNR, nc - jp);
    for (std::int64_t p = 0; p < kc; ++p) {
      float* out = dst + p * kNR;
      if (trans_b) {
        const float* src = b + (j0 + jp) * ldb + pc + p;
        for (std::int64_t c = 0; c < cols; ++c) out[c] = src[c * ldb];
      } else {
        const float* src = b + (pc + p) * ldb + j0 + jp;
        for (std::int64_t c = 0; c < cols; ++c) out[c] = src[c];
      }
      for (std::int64_t c = cols; c < kNR; ++c) out[c] = 0.0F;
    }
    dst += kc * kNR;
  }
}

// Blocked GEMM over the row range [m0, m1) with one micro-kernel. C rows in
// the range must already hold the values to accumulate into.
void blocked_range(const float* a, std::int64_t lda, const float* b,
                   std::int64_t ldb, float* c, std::int64_t ldc,
                   std::int64_t m0, std::int64_t m1, std::int64_t n,
                   std::int64_t k, bool trans_a, bool trans_b,
                   detail::MicroKernelFn kern) {
  // Reused across calls on each (pool or caller) thread to avoid per-call
  // allocation; sized for the largest panel this call needs.
  thread_local std::vector<float> a_pack;
  thread_local std::vector<float> b_pack;
  const std::int64_t nc_max = std::min(kNC, n);
  const std::int64_t kc_max = std::min(kKC, k);
  const std::int64_t b_panels = (nc_max + kNR - 1) / kNR;
  const std::int64_t a_panels = (std::min(kMC, m1 - m0) + kMR - 1) / kMR;
  if (static_cast<std::int64_t>(b_pack.size()) < b_panels * kc_max * kNR) {
    b_pack.resize(static_cast<std::size_t>(b_panels * kc_max * kNR));
  }
  if (static_cast<std::int64_t>(a_pack.size()) < a_panels * kc_max * kMR) {
    a_pack.resize(static_cast<std::size_t>(a_panels * kc_max * kMR));
  }

  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k - pc);
      pack_b(b_pack.data(), b, ldb, trans_b, pc, kc, jc, nc);
      for (std::int64_t ic = m0; ic < m1; ic += kMC) {
        const std::int64_t mc = std::min(kMC, m1 - ic);
        pack_a(a_pack.data(), a, lda, trans_a, ic, mc, pc, kc);
        for (std::int64_t jr = 0; jr < nc; jr += kNR) {
          const float* b_panel = b_pack.data() + (jr / kNR) * kc * kNR;
          const std::int64_t nr = std::min(kNR, nc - jr);
          for (std::int64_t ir = 0; ir < mc; ir += kMR) {
            const float* a_panel = a_pack.data() + (ir / kMR) * kc * kMR;
            const std::int64_t mr = std::min(kMR, mc - ir);
            kern(kc, a_panel, b_panel, c + (ic + ir) * ldc + jc + jr, ldc, mr,
                 nr);
          }
        }
      }
    }
  }
}

// Plain loop-order kernels (the pre-blocking matmul.cpp code, generalized to
// strides). Used by kAuto for tiny problems where packing overhead dominates.
void direct_range(const float* a, std::int64_t lda, const float* b,
                  std::int64_t ldb, float* c, std::int64_t ldc,
                  std::int64_t m0, std::int64_t m1, std::int64_t n,
                  std::int64_t k, bool trans_a, bool trans_b) {
  if (!trans_a && !trans_b) {
    // ikj order: streams B rows; auto-vectorizes well.
    for (std::int64_t i = m0; i < m1; ++i) {
      float* crow = c + i * ldc;
      const float* arow = a + i * lda;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        const float* brow = b + p * ldb;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else if (!trans_a && trans_b) {
    // B stored [N, K]: contiguous dot products.
    for (std::int64_t i = m0; i < m1; ++i) {
      const float* arow = a + i * lda;
      float* crow = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * ldb;
        float acc = 0.0F;
        for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        crow[j] += acc;
      }
    }
  } else if (trans_a && !trans_b) {
    // A stored [K, M]: A'[i, p] = a[p * lda + i].
    for (std::int64_t i = m0; i < m1; ++i) {
      float* crow = c + i * ldc;
      for (std::int64_t p = 0; p < k; ++p) {
        const float a_ip = a[p * lda + i];
        const float* brow = b + p * ldb;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += a_ip * brow[j];
      }
    }
  } else {  // trans_a && trans_b
    for (std::int64_t i = m0; i < m1; ++i) {
      float* crow = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) {
        float acc = 0.0F;
        for (std::int64_t p = 0; p < k; ++p) {
          acc += a[p * lda + i] * b[j * ldb + p];
        }
        crow[j] += acc;
      }
    }
  }
}

void zero_rows(float* c, std::int64_t ldc, std::int64_t m0, std::int64_t m1,
               std::int64_t n) {
  for (std::int64_t i = m0; i < m1; ++i) {
    float* row = c + i * ldc;
    std::fill(row, row + n, 0.0F);
  }
}

}  // namespace

std::vector<Kernel> available_kernels() { return kernels().available(); }

std::string kernel_name(Kernel kernel) { return kernels().name(kernel); }

void gemm(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
          float* c, std::int64_t ldc, std::int64_t m, std::int64_t n,
          std::int64_t k, bool trans_a, bool trans_b, bool accumulate,
          Kernel kernel, bool parallel) {
  if (m <= 0 || n <= 0) return;
  if (!accumulate) zero_rows(c, ldc, 0, m, n);
  if (k <= 0) return;

  const std::int64_t work = m * n * k;
  // Tiny problems skip packing: the direct loops win when panel setup costs
  // rival the whole product (explicit kernel requests are honored as-is so
  // the test harness can drive the packed path at any size).
  const detail::MicroKernelFn kern = kernels().impl(
      kernel == Kernel::kAuto && work < kDirectThreshold ? Kernel::kScalar
                                                         : kernel);
  detail::split_m(m, work, parallel, [&](std::int64_t lo, std::int64_t hi) {
    if (kern == nullptr) {
      direct_range(a, lda, b, ldb, c, ldc, lo, hi, n, k, trans_a, trans_b);
    } else {
      blocked_range(a, lda, b, ldb, c, ldc, lo, hi, n, k, trans_a, trans_b,
                    kern);
    }
  });
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
          bool accumulate, Kernel kernel, bool parallel) {
  gemm(a, trans_a ? m : k, b, trans_b ? k : n, c, n, m, n, k, trans_a, trans_b,
       accumulate, kernel, parallel);
}

}  // namespace saga::gemm
