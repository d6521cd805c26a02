// Kernel-equivalence harness for the blocked/packed GEMM unit: every
// dispatchable micro-kernel (scalar, AVX2 when the host has it) is checked
// against a triple-loop double-accumulator reference over randomized shapes —
// all four trans combos, a full M/N/K cross product plus ragged edge tiles,
// accumulate on and off — and pinned for determinism (bit-identical across
// repeated runs and across 1-thread vs pool execution).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "tensor/gemm/gemm.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/reduce.hpp"
#include "tensor/shape_ops.hpp"
#include "util/dispatch.hpp"
#include "util/rng.hpp"

namespace saga {
namespace {

struct Problem {
  std::int64_t m, n, k;
  bool trans_a, trans_b;
  bool accumulate;
};

std::vector<float> random_vec(std::size_t size, util::Rng& rng) {
  std::vector<float> v(size);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// Triple-loop reference with double accumulation, including the initial C
// contents when accumulating.
std::vector<double> reference_gemm(const Problem& p, const std::vector<float>& a,
                                   const std::vector<float>& b,
                                   const std::vector<float>& c_init) {
  std::vector<double> ref(static_cast<std::size_t>(p.m * p.n), 0.0);
  for (std::int64_t i = 0; i < p.m; ++i) {
    for (std::int64_t j = 0; j < p.n; ++j) {
      double acc = p.accumulate ? static_cast<double>(c_init[i * p.n + j]) : 0.0;
      for (std::int64_t q = 0; q < p.k; ++q) {
        const float av = p.trans_a ? a[q * p.m + i] : a[i * p.k + q];
        const float bv = p.trans_b ? b[j * p.k + q] : b[q * p.n + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      ref[i * p.n + j] = acc;
    }
  }
  return ref;
}

// Per-element tolerance scaled by the reduction depth: float32 accumulation
// error grows roughly linearly in K for same-sign worst cases.
float tolerance(std::int64_t k) {
  return 1e-5F + 2e-6F * static_cast<float>(k);
}

// Kernels the harness sweeps: every dispatchable micro-kernel plus kAuto
// (which additionally covers the small-case direct path on tiny shapes).
std::vector<gemm::Kernel> kernels_under_test() {
  std::vector<gemm::Kernel> kernels = gemm::available_kernels();
  kernels.push_back(gemm::Kernel::kAuto);
  return kernels;
}

void check_problem(const Problem& p, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto a = random_vec(static_cast<std::size_t>(p.m * p.k), rng);
  const auto b = random_vec(static_cast<std::size_t>(p.k * p.n), rng);
  const auto c_init = random_vec(static_cast<std::size_t>(p.m * p.n), rng);
  const auto ref = reference_gemm(p, a, b, c_init);
  const float tol = tolerance(p.k);

  for (const gemm::Kernel kernel : kernels_under_test()) {
    std::vector<float> c = c_init;
    gemm::gemm(a.data(), b.data(), c.data(), p.m, p.n, p.k, p.trans_a,
               p.trans_b, p.accumulate, kernel);
    for (std::int64_t i = 0; i < p.m * p.n; ++i) {
      const float err = std::abs(c[i] - static_cast<float>(ref[i]));
      ASSERT_LE(err, tol) << "kernel=" << gemm::kernel_name(kernel)
                          << " m=" << p.m << " n=" << p.n << " k=" << p.k
                          << " ta=" << p.trans_a << " tb=" << p.trans_b
                          << " acc=" << p.accumulate << " element " << i;
    }
  }
}

TEST(GemmKernels, ReportsKernelName) {
  const std::string name = gemm::kernel_name();
  EXPECT_FALSE(name.empty());
  std::cout << "[ gemm ] dispatch kernel: " << name << " (available:";
  for (const gemm::Kernel kernel : gemm::available_kernels()) {
    std::cout << ' ' << gemm::kernel_name(kernel);
  }
  std::cout << ")\n";
}

TEST(GemmKernels, HonorsForceScalarEnv) {
  // The branch comes from the environment itself, not util::force_scalar(),
  // so a misread pin cannot send the forced run down the SIMD branch.
  const char* forced = std::getenv("SAGA_FORCE_SCALAR");
  if (forced != nullptr && std::atoll(forced) != 0) {
    // Forced-scalar run (the test_gemm_kernels_forced_scalar ctest entry):
    // only the portable kernel may be dispatchable.
    EXPECT_TRUE(util::force_scalar());
    EXPECT_EQ(gemm::kernel_name(), "scalar");
    EXPECT_EQ(gemm::available_kernels(),
              std::vector<gemm::Kernel>{gemm::Kernel::kScalar});
    const float one = 1.0F;
    float out = 0.0F;
    EXPECT_THROW(gemm::gemm(&one, &one, &out, 1, 1, 1, false, false, false,
                            gemm::Kernel::kAvx2),
                 std::runtime_error);
  } else if (util::cpu_has(util::CpuFeature::kAvx2) &&
             util::cpu_has(util::CpuFeature::kFma)) {
    EXPECT_EQ(gemm::kernel_name(), "avx2-6x16");
    ASSERT_EQ(gemm::available_kernels().size(), 2U);
  } else {
    EXPECT_EQ(gemm::kernel_name(), "scalar");
  }
}

// Full M/N/K cross product over sizes straddling the register tile (6x16),
// including K=1 and K spanning multiple micro-steps; all four trans combos.
// `accumulate` alternates deterministically to bound runtime — both settings
// are exercised for every size somewhere in the sweep, and exhaustively in
// RaggedEdgeTiles below.
TEST(GemmKernels, CrossProductAllTransCombos) {
  const std::int64_t sizes[] = {1, 2, 3, 5, 8, 17, 64, 129};
  std::uint64_t seed = 1;
  for (const std::int64_t m : sizes) {
    for (const std::int64_t n : sizes) {
      for (const std::int64_t k : sizes) {
        for (int ta = 0; ta < 2; ++ta) {
          for (int tb = 0; tb < 2; ++tb) {
            const bool accumulate = (m + n + k + ta + tb) % 2 == 0;
            check_problem({m, n, k, ta != 0, tb != 0, accumulate}, ++seed);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

// Shapes chosen to hit every edge-tile case: exact tile multiples, one-off
// remainders around kMR=6 / kNR=16, and blocking boundaries around KC=256,
// MC=72, NC=384. Both accumulate settings, all trans combos.
TEST(GemmKernels, RaggedEdgeTiles) {
  const Problem shapes[] = {
      {6, 16, 32, false, false, false},   {7, 17, 31, false, false, false},
      {5, 15, 33, false, false, false},   {12, 32, 256, false, false, false},
      {13, 33, 257, false, false, false}, {11, 31, 255, false, false, false},
      {72, 96, 64, false, false, false},  {73, 97, 65, false, false, false},
      {1, 129, 7, false, false, false},   {129, 1, 7, false, false, false},
      {2, 2, 300, false, false, false},
  };
  std::uint64_t seed = 1000;
  for (const Problem& base : shapes) {
    for (int ta = 0; ta < 2; ++ta) {
      for (int tb = 0; tb < 2; ++tb) {
        for (int acc = 0; acc < 2; ++acc) {
          Problem p = base;
          p.trans_a = ta != 0;
          p.trans_b = tb != 0;
          p.accumulate = acc != 0;
          check_problem(p, ++seed);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// The strided entry point (leading dimensions larger than the logical row
// length) is what fused attention relies on for per-head views.
TEST(GemmKernels, StridedViewsMatchContiguous) {
  util::Rng rng(42);
  const std::int64_t m = 37, n = 23, k = 19;
  const std::int64_t lda = k + 13, ldb = n + 7, ldc = n + 5;
  const auto a_slab = random_vec(static_cast<std::size_t>(m * lda), rng);
  const auto b_slab = random_vec(static_cast<std::size_t>(k * ldb), rng);

  // Contiguous copies of the strided views.
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t q = 0; q < k; ++q) a[i * k + q] = a_slab[i * lda + q];
  }
  for (std::int64_t q = 0; q < k; ++q) {
    for (std::int64_t j = 0; j < n; ++j) b[q * n + j] = b_slab[q * ldb + j];
  }

  for (const gemm::Kernel kernel : kernels_under_test()) {
    std::vector<float> c_dense(static_cast<std::size_t>(m * n), 0.0F);
    gemm::gemm(a.data(), b.data(), c_dense.data(), m, n, k, false, false,
               false, kernel);
    std::vector<float> c_slab(static_cast<std::size_t>(m * ldc), -7.0F);
    gemm::gemm(a_slab.data(), lda, b_slab.data(), ldb, c_slab.data(), ldc, m,
               n, k, false, false, false, kernel);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        // Identical packing/arithmetic path — results must match bitwise.
        ASSERT_EQ(c_slab[i * ldc + j], c_dense[i * n + j])
            << "kernel=" << gemm::kernel_name(kernel) << " (" << i << ", " << j
            << ")";
      }
      // Padding between rows stays untouched.
      for (std::int64_t j = n; j < ldc; ++j) {
        ASSERT_EQ(c_slab[i * ldc + j], -7.0F);
      }
    }
  }
}

// Determinism pin: repeated runs and 1-thread vs pool execution must agree
// bitwise, for every dispatchable kernel. The shape crosses the parallel
// threshold and has ragged tiles in every dimension.
TEST(GemmKernels, BitIdenticalAcrossRunsAndThreadCounts) {
  util::Rng rng(7);
  const std::int64_t m = 147, n = 163, k = 85;
  const auto a = random_vec(static_cast<std::size_t>(m * k), rng);
  const auto b = random_vec(static_cast<std::size_t>(k * n), rng);
  for (const gemm::Kernel kernel : kernels_under_test()) {
    std::vector<float> c_pool1(static_cast<std::size_t>(m * n));
    std::vector<float> c_pool2(static_cast<std::size_t>(m * n));
    std::vector<float> c_serial(static_cast<std::size_t>(m * n));
    gemm::gemm(a.data(), b.data(), c_pool1.data(), m, n, k, false, false,
               false, kernel, /*parallel=*/true);
    gemm::gemm(a.data(), b.data(), c_pool2.data(), m, n, k, false, false,
               false, kernel, /*parallel=*/true);
    gemm::gemm(a.data(), b.data(), c_serial.data(), m, n, k, false, false,
               false, kernel, /*parallel=*/false);
    for (std::int64_t i = 0; i < m * n; ++i) {
      ASSERT_EQ(c_pool1[i], c_pool2[i])
          << "kernel=" << gemm::kernel_name(kernel) << " repeat run, element "
          << i;
      ASSERT_EQ(c_pool1[i], c_serial[i])
          << "kernel=" << gemm::kernel_name(kernel)
          << " pool vs single-thread, element " << i;
    }
  }
}

TEST(GemmKernels, AccumulateAddsIntoC) {
  const std::vector<float> a{1.0F, 2.0F};  // [1,2]
  const std::vector<float> b{3.0F, 4.0F};  // [2,1]
  for (const gemm::Kernel kernel : kernels_under_test()) {
    std::vector<float> c{10.0F};
    gemm::gemm(a.data(), b.data(), c.data(), 1, 1, 2, false, false,
               /*accumulate=*/true, kernel);
    EXPECT_NEAR(c[0], 10.0F + 11.0F, 1e-5F)
        << "kernel=" << gemm::kernel_name(kernel);
  }
}

// Tensor-level seam: matmul consumes last-dim-sliced (ld > cols) and
// transposed (stored-transposed, flipped trans flag) views directly, with no
// materializing copy. Forward results and scattered gradients must be
// bit-identical to a run on pre-copied contiguous operands — the packed
// kernels normalize operand layout before the arithmetic, and the direct
// path sums every output element over k in the same order for all trans
// combos. (The test_gemm_kernels_forced_scalar ctest entry re-runs this
// against the scalar kernels.)
TEST(GemmKernels, MatmulViewOperandsMatchPrecopied) {
  util::Rng rng(50);
  Tensor big = Tensor::randn({9, 31}, rng, 1.0F, true);
  Tensor bt = Tensor::randn({11, 7}, rng, 1.0F, true);  // stores B transposed
  const Tensor a_view = slice(big, 1, 3, 7);      // [9, 7] with ld 31
  const Tensor b_view = transpose_last2(bt);      // [7, 11] stored-transposed
  ASSERT_FALSE(a_view.is_contiguous());
  ASSERT_FALSE(b_view.is_contiguous());
  Tensor a_pre = a_view.clone().set_requires_grad(true);
  Tensor b_pre = b_view.clone().set_requires_grad(true);

  const std::uint64_t copies = detail::materializing_copies();
  const Tensor out_view = matmul(a_view, b_view);
  EXPECT_EQ(detail::materializing_copies(), copies)
      << "matmul must consume these views without copying";
  const Tensor out_pre = matmul(a_pre, b_pre);
  ASSERT_EQ(out_view.shape(), out_pre.shape());
  for (std::int64_t i = 0; i < out_view.numel(); ++i) {
    ASSERT_EQ(out_view.at(i), out_pre.at(i)) << "forward element " << i;
  }

  sum(mul(out_view, out_view)).backward();
  sum(mul(out_pre, out_pre)).backward();
  // dA scattered into big's columns 3..9; every other column stays zero.
  for (std::int64_t i = 0; i < 9; ++i) {
    for (std::int64_t q = 0; q < 31; ++q) {
      const float expected =
          (q >= 3 && q < 10)
              ? a_pre.grad()[static_cast<std::size_t>(i * 7 + (q - 3))]
              : 0.0F;
      ASSERT_EQ(big.grad()[static_cast<std::size_t>(i * 31 + q)], expected)
          << "dA (" << i << ", " << q << ")";
    }
  }
  // dB scattered through the transpose: bt grad is b_pre's grad, transposed.
  for (std::int64_t j = 0; j < 11; ++j) {
    for (std::int64_t q = 0; q < 7; ++q) {
      ASSERT_EQ(bt.grad()[static_cast<std::size_t>(j * 7 + q)],
                b_pre.grad()[static_cast<std::size_t>(q * 11 + j)])
          << "dB (" << j << ", " << q << ")";
    }
  }
}

// Same contract for bmm: per-batch strided views (sliced last dim, batched
// transpose) flow straight into the per-batch GEMMs.
TEST(GemmKernels, BmmViewOperandsMatchPrecopied) {
  util::Rng rng(51);
  Tensor abase = Tensor::randn({2, 5, 12}, rng, 1.0F, true);
  Tensor btrans = Tensor::randn({2, 9, 7}, rng, 1.0F, true);
  const Tensor a_view = slice(abase, 2, 4, 7);    // [2, 5, 7] with ld 12
  const Tensor b_view = transpose_last2(btrans);  // [2, 7, 9] stored-transposed
  ASSERT_FALSE(a_view.is_contiguous());
  ASSERT_FALSE(b_view.is_contiguous());
  Tensor a_pre = a_view.clone().set_requires_grad(true);
  Tensor b_pre = b_view.clone().set_requires_grad(true);

  const std::uint64_t copies = detail::materializing_copies();
  const Tensor out_view = bmm(a_view, b_view, false, false);
  EXPECT_EQ(detail::materializing_copies(), copies)
      << "bmm must consume these views without copying";
  const Tensor out_pre = bmm(a_pre, b_pre, false, false);
  ASSERT_EQ(out_view.shape(), (Shape{2, 5, 9}));
  for (std::int64_t i = 0; i < out_view.numel(); ++i) {
    ASSERT_EQ(out_view.at(i), out_pre.at(i)) << "forward element " << i;
  }

  sum(mul(out_view, out_view)).backward();
  sum(mul(out_pre, out_pre)).backward();
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t i = 0; i < 5; ++i) {
      for (std::int64_t q = 0; q < 12; ++q) {
        const float expected =
            (q >= 4 && q < 11)
                ? a_pre.grad()[static_cast<std::size_t>((b * 5 + i) * 7 +
                                                        (q - 4))]
                : 0.0F;
        ASSERT_EQ(
            abase.grad()[static_cast<std::size_t>((b * 5 + i) * 12 + q)],
            expected)
            << "dA (" << b << ", " << i << ", " << q << ")";
      }
    }
    for (std::int64_t j = 0; j < 9; ++j) {
      for (std::int64_t q = 0; q < 7; ++q) {
        ASSERT_EQ(btrans.grad()[static_cast<std::size_t>((b * 9 + j) * 7 + q)],
                  b_pre.grad()[static_cast<std::size_t>((b * 7 + q) * 9 + j)])
            << "dB (" << b << ", " << j << ", " << q << ")";
      }
    }
  }
}

TEST(GemmKernels, DegenerateDimsAreSafe) {
  // k=0 with !accumulate must still zero C; m=0 or n=0 must be no-ops.
  for (const gemm::Kernel kernel : kernels_under_test()) {
    std::vector<float> c{5.0F, 5.0F};
    gemm::gemm(nullptr, nullptr, c.data(), 2, 1, 0, false, false,
               /*accumulate=*/false, kernel);
    EXPECT_EQ(c[0], 0.0F);
    EXPECT_EQ(c[1], 0.0F);
    gemm::gemm(nullptr, nullptr, nullptr, 0, 5, 3, false, false, false,
               kernel);
    gemm::gemm(nullptr, nullptr, nullptr, 5, 0, 3, false, false, false,
               kernel);
  }
}

}  // namespace
}  // namespace saga
