#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "nn/linear.hpp"
#include "quant/qlinear.hpp"
#include "quant/quant.hpp"
#include "quant/quantize.hpp"
#include "reference.hpp"
#include "serve/artifact.hpp"
#include "serve/engine.hpp"
#include "tensor/eltwise/eltwise.hpp"
#include "tensor/gemm/gemm_s8.hpp"
#include "tensor/grad_mode.hpp"
#include "tensor/tensor.hpp"
#include "train/finetune.hpp"
#include "util/dispatch.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace saga::quant {
namespace {

std::string temp_path(const std::string& name) {
  // Pid-qualified: this binary runs as several concurrent ctest entries
  // (plain / forced-scalar / forced-7bit), which must not share scratch
  // files.
  return std::filesystem::temp_directory_path() /
         (std::to_string(::getpid()) + "_" + name);
}

std::vector<float> random_matrix(std::int64_t count, float lo, float hi,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> values(static_cast<std::size_t>(count));
  for (auto& v : values) v = static_cast<float>(rng.uniform(lo, hi));
  return values;
}

float absmax_of(const std::vector<float>& values) {
  float m = 0.0F;
  for (const float v : values) m = std::max(m, std::abs(v));
  return m;
}

// Activation codes from the production quantizer: the fused epilogue's
// no-bias sweep, as the int8 layers' entry quantization runs it.
std::vector<std::uint8_t> quantize(const std::vector<float>& x, float scale,
                                   ActEncoding encoding = ActEncoding::k7Bit) {
  const auto n = static_cast<std::int64_t>(x.size());
  std::vector<std::uint8_t> q(x.size());
  eltwise::bias_act_quantize(x.data(), nullptr, 1, n, /*gelu=*/false, scale,
                             act_zero(encoding), act_max(encoding), q.data(),
                             n);
  return q;
}

// ---- weight quantization --------------------------------------------------

TEST(QuantWeights, RoundTripWithinHalfScale) {
  const std::int64_t rows = 37;
  const std::int64_t cols = 29;
  const auto w = random_matrix(rows * cols, -2.5F, 2.5F, 11);
  const QuantBlob blob = quantize_weights(w.data(), rows, cols);

  ASSERT_EQ(blob.rows, rows);
  ASSERT_EQ(blob.cols, cols);
  ASSERT_EQ(blob.values.size(), w.size());
  ASSERT_EQ(blob.scales.size(), static_cast<std::size_t>(cols));
  for (const float s : blob.scales) EXPECT_GT(s, 0.0F);
  for (const std::int8_t q : blob.values) {
    EXPECT_GE(q, -kWeightMax);
    EXPECT_LE(q, kWeightMax);
  }

  const std::vector<float> deq = dequantize_weights(blob);
  ASSERT_EQ(deq.size(), w.size());
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      const auto i = static_cast<std::size_t>(r * cols + c);
      const float bound = blob.scales[static_cast<std::size_t>(c)] * 0.5F + 1e-6F;
      EXPECT_LE(std::abs(deq[i] - w[i]), bound) << "element (" << r << "," << c << ")";
    }
  }
}

TEST(QuantWeights, ScalesArePerChannel) {
  // One huge column next to one tiny column: per-tensor scaling would wipe
  // out the tiny column entirely; per-channel keeps its relative error small.
  const std::int64_t rows = 8;
  std::vector<float> w(static_cast<std::size_t>(rows) * 2);
  for (std::int64_t r = 0; r < rows; ++r) {
    w[static_cast<std::size_t>(r * 2)] = 1000.0F + static_cast<float>(r);
    w[static_cast<std::size_t>(r * 2 + 1)] = 0.001F * static_cast<float>(r + 1);
  }
  const QuantBlob blob = quantize_weights(w.data(), rows, 2);
  const std::vector<float> deq = dequantize_weights(blob);
  for (std::int64_t r = 0; r < rows; ++r) {
    const auto i = static_cast<std::size_t>(r * 2 + 1);
    EXPECT_LE(std::abs(deq[i] - w[i]), std::abs(w[i]) * 0.01F + 1e-9F)
        << "tiny column drowned by the large one at row " << r;
  }
}

TEST(QuantWeights, ZeroAndTinyChannelsStayFinite) {
  const std::int64_t rows = 4;
  const std::int64_t cols = 3;
  // col 0: all zero; col 1: denormal magnitudes; col 2: ordinary values.
  std::vector<float> w(static_cast<std::size_t>(rows * cols), 0.0F);
  for (std::int64_t r = 0; r < rows; ++r) {
    w[static_cast<std::size_t>(r * cols + 1)] = 1e-41F;
    w[static_cast<std::size_t>(r * cols + 2)] = 0.5F * static_cast<float>(r + 1);
  }
  const QuantBlob blob = quantize_weights(w.data(), rows, cols);
  EXPECT_EQ(blob.scales[0], 1.0F);  // documented all-zero-column convention
  const std::vector<float> deq = dequantize_weights(blob);
  for (const float v : deq) EXPECT_TRUE(std::isfinite(v));
  for (std::int64_t r = 0; r < rows; ++r) {
    EXPECT_EQ(deq[static_cast<std::size_t>(r * cols)], 0.0F);
  }
}

TEST(QuantWeights, RejectsNonFiniteInput) {
  std::vector<float> w{1.0F, std::nanf(""), 2.0F, 3.0F};
  EXPECT_THROW(quantize_weights(w.data(), 2, 2), std::invalid_argument);
}

// ---- activation quantization ----------------------------------------------

TEST(QuantActivations, RoundTripWithinHalfScale) {
  const auto x = random_matrix(257, -3.0F, 3.0F, 5);
  const float scale = activation_scale(absmax_of(x));
  const std::vector<std::uint8_t> q = quantize(x, scale);
  for (const std::uint8_t v : q) {
    EXPECT_GE(v, kActZero - kActMax);
    EXPECT_LE(v, kActZero + kActMax);
  }
  std::vector<float> back(x.size());
  reference::dequantize_activations(
      q.data(), static_cast<std::int64_t>(x.size()), scale, back.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::abs(back[i] - x[i]), scale * 0.5F + 1e-6F);
  }
}

TEST(QuantActivations, ZeroMapsToOffsetExactly) {
  const std::uint8_t q = quantize({0.0F}, activation_scale(2.0F))[0];
  EXPECT_EQ(q, kActZero);
  float back = 1.0F;
  reference::dequantize_activations(&q, 1, activation_scale(2.0F), &back);
  EXPECT_EQ(back, 0.0F);
  EXPECT_EQ(activation_scale(0.0F), 1.0F);
}

TEST(QuantActivations, EightBitEncodingRoundTripsWithHalvedStep) {
  const auto x = random_matrix(257, -3.0F, 3.0F, 5);
  const float absmax = absmax_of(x);
  const float scale7 = activation_scale(absmax, ActEncoding::k7Bit);
  const float scale8 = activation_scale(absmax, ActEncoding::k8Bit);
  EXPECT_LT(scale8, scale7);  // 127 levels vs 63: finer step, same absmax
  const std::vector<std::uint8_t> q = quantize(x, scale8, ActEncoding::k8Bit);
  for (const std::uint8_t v : q) {
    EXPECT_GE(v, kActZero8 - kActMax8);  // codes live in [1, 255]
  }
  std::vector<float> back(x.size());
  reference::dequantize_activations(q.data(),
                                    static_cast<std::int64_t>(x.size()),
                                    scale8, back.data(), ActEncoding::k8Bit);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::abs(back[i] - x[i]), scale8 * 0.5F + 1e-6F);
  }

  EXPECT_EQ(quantize({0.0F}, scale8, ActEncoding::k8Bit)[0], kActZero8);
}

TEST(QuantActivations, PreferredEncodingFollowsDispatchedKernel) {
  // The env pin (exercised by the test_quant_forced_7bit ctest variant)
  // overrides everything; without it the encoding tracks the resolved
  // kernel, including ForceInt8KernelGuard pins.
  const char* env = std::getenv("SAGA_INT8_ACT_BITS");
  if (env != nullptr) {
    const ActEncoding pinned = std::string(env) == "8" ? ActEncoding::k8Bit
                                                       : ActEncoding::k7Bit;
    EXPECT_EQ(preferred_act_encoding(), pinned);
    gemm::ForceInt8KernelGuard guard(gemm::Int8Kernel::kScalar);
    EXPECT_EQ(preferred_act_encoding(), pinned) << "env pin must beat guards";
    return;
  }
  for (const gemm::Int8Kernel kernel : gemm::available_int8_kernels()) {
    gemm::ForceInt8KernelGuard guard(kernel);
    const bool vnni = kernel == gemm::Int8Kernel::kAvxVnni ||
                      kernel == gemm::Int8Kernel::kAvx512Vnni;
    EXPECT_EQ(preferred_act_encoding(),
              vnni ? ActEncoding::k8Bit : ActEncoding::k7Bit)
        << gemm::int8_kernel_name(kernel);
  }
}

// ---- int8 GEMM ------------------------------------------------------------

struct GemmShape {
  std::int64_t m, n, k;
};

TEST(GemmS8, AllKernelsMatchNaiveReferenceOnRaggedShapes) {
  const std::vector<GemmShape> shapes{{1, 1, 1},  {2, 3, 4},   {5, 8, 13},
                                      {8, 8, 8},  {17, 33, 5}, {33, 16, 64},
                                      {3, 65, 7}, {16, 7, 31}};
  util::Rng rng(21);
  for (const auto& [m, n, k] : shapes) {
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(1, 127));
    for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));

    const gemm::PackedB8 packed = gemm::pack_b8(b.data(), k, n);
    ASSERT_EQ(packed.col_sums.size(), static_cast<std::size_t>(n));
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t sum = 0;
      for (std::int64_t p = 0; p < k; ++p) sum += b[static_cast<std::size_t>(p * n + j)];
      EXPECT_EQ(packed.col_sums[static_cast<std::size_t>(j)], sum);
    }

    std::vector<std::int32_t> expected(static_cast<std::size_t>(m * n), 0);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        std::int32_t acc = 0;
        for (std::int64_t p = 0; p < k; ++p) {
          acc += static_cast<std::int32_t>(a[static_cast<std::size_t>(i * k + p)]) *
                 static_cast<std::int32_t>(b[static_cast<std::size_t>(p * n + j)]);
        }
        expected[static_cast<std::size_t>(i * n + j)] = acc;
      }
    }

    for (const gemm::Int8Kernel kernel : gemm::available_int8_kernels()) {
      std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), -1);
      gemm::gemm_s8(a.data(), k, packed, c.data(), n, m, kernel);
      EXPECT_EQ(c, expected) << "kernel " << gemm::int8_kernel_name(kernel)
                             << " m=" << m << " n=" << n << " k=" << k;
      std::vector<std::int32_t> serial(static_cast<std::size_t>(m * n), -1);
      gemm::gemm_s8(a.data(), k, packed, serial.data(), n, m, kernel,
                    /*parallel=*/false);
      EXPECT_EQ(serial, expected) << "serial path diverged, kernel "
                                  << gemm::int8_kernel_name(kernel);
    }
  }
}

TEST(GemmS8, ForceGuardPinsDispatchAndRestores) {
  const auto kernels = gemm::available_int8_kernels();
  const bool avx2_ok = std::find(kernels.begin(), kernels.end(),
                                 gemm::Int8Kernel::kAvx2) != kernels.end();
  const std::string ambient = gemm::int8_kernel_name();
  {
    gemm::ForceInt8KernelGuard scalar(gemm::Int8Kernel::kScalar);
    EXPECT_EQ(gemm::int8_kernel_name(), "scalar");
    EXPECT_EQ(gemm::resolved_int8_kernel(), gemm::Int8Kernel::kScalar);
    for (const gemm::Int8Kernel kernel : kernels) {
      gemm::ForceInt8KernelGuard inner(kernel);
      EXPECT_EQ(gemm::resolved_int8_kernel(), kernel);
      EXPECT_EQ(gemm::int8_kernel_name(), gemm::int8_kernel_name(kernel));
    }
    EXPECT_EQ(gemm::int8_kernel_name(), "scalar");  // inner pin restored
  }
  EXPECT_EQ(gemm::int8_kernel_name(), ambient);
  if (!avx2_ok) {
    EXPECT_THROW(gemm::ForceInt8KernelGuard guard(gemm::Int8Kernel::kAvx2),
                 std::runtime_error);
  }
}

TEST(GemmS8, MaddubsRejectsEightBitActivationsOthersAcceptThem) {
  // 128 violates maddubs's 7-bit saturation contract; the driver must refuse
  // it on that kernel rather than return kernel-dependent results. Every
  // other kernel accumulates straight into s32, so the same input is legal
  // there and must be exact.
  std::vector<std::uint8_t> a{64, 128};
  std::vector<std::int8_t> b{1, 1};
  const gemm::PackedB8 packed = gemm::pack_b8(b.data(), 2, 1);
  for (const gemm::Int8Kernel kernel : gemm::available_int8_kernels()) {
    std::int32_t c = -1;
    if (kernel == gemm::Int8Kernel::kAvx2) {
      EXPECT_FALSE(gemm::int8_kernel_allows_8bit(kernel));
      EXPECT_THROW(gemm::gemm_s8(a.data(), 2, packed, &c, 1, 1, kernel),
                   std::invalid_argument);
    } else {
      EXPECT_TRUE(gemm::int8_kernel_allows_8bit(kernel));
      gemm::gemm_s8(a.data(), 2, packed, &c, 1, 1, kernel);
      EXPECT_EQ(c, 64 + 128) << "kernel " << gemm::int8_kernel_name(kernel);
    }
  }
}

TEST(GemmS8, EightBitActivationsMatchNaiveReferenceOnCapableKernels) {
  // Full-range u8 A (0..255) across every kernel that advertises 8-bit
  // support; all of them must agree bit-for-bit with the naive triple loop.
  const std::vector<GemmShape> shapes{{1, 1, 4}, {5, 8, 13}, {16, 7, 31},
                                      {33, 16, 64}};
  util::Rng rng(87);
  for (const auto& [m, n, k] : shapes) {
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    const gemm::PackedB8 packed = gemm::pack_b8(b.data(), k, n);
    std::vector<std::int32_t> expected(static_cast<std::size_t>(m * n), 0);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        std::int32_t acc = 0;
        for (std::int64_t p = 0; p < k; ++p) {
          acc += static_cast<std::int32_t>(a[static_cast<std::size_t>(i * k + p)]) *
                 static_cast<std::int32_t>(b[static_cast<std::size_t>(p * n + j)]);
        }
        expected[static_cast<std::size_t>(i * n + j)] = acc;
      }
    }
    for (const gemm::Int8Kernel kernel : gemm::available_int8_kernels()) {
      if (!gemm::int8_kernel_allows_8bit(kernel)) continue;
      std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), -1);
      gemm::gemm_s8(a.data(), k, packed, c.data(), n, m, kernel);
      EXPECT_EQ(c, expected) << "kernel " << gemm::int8_kernel_name(kernel)
                             << " m=" << m << " n=" << n << " k=" << k;
    }
  }
}

TEST(GemmS8, VnniKernelsSkipCleanlyWithoutCpuSupport) {
  // On hosts without the VNNI CPUID bits the forced-kernel tests above
  // iterate available_int8_kernels() and simply never see the VNNI entries;
  // this test makes the skip visible in logs and pins availability to the
  // CPUID bits it gates on.
  const auto kernels = gemm::available_int8_kernels();
  const auto available = [&](gemm::Int8Kernel kernel) {
    return std::find(kernels.begin(), kernels.end(), kernel) != kernels.end();
  };
  const struct {
    gemm::Int8Kernel kernel;
    util::CpuFeature cpuid_bit;
  } vnni[] = {{gemm::Int8Kernel::kAvxVnni, util::CpuFeature::kAvxVnni},
              {gemm::Int8Kernel::kAvx512Vnni, util::CpuFeature::kAvx512Vnni}};
  for (const auto& [kernel, cpuid_bit] : vnni) {
    if (available(kernel)) {
      // Availability implies the CPUID bit (the converse needs build
      // support, and no SAGA_FORCE_SCALAR pin).
      EXPECT_TRUE(util::cpu_has(cpuid_bit)) << gemm::int8_kernel_name(kernel);
      continue;
    }
    std::cout << "[  SKIPPED ] " << gemm::int8_kernel_name(kernel)
              << " kernel unavailable (CPUID bit "
              << util::cpu_has(cpuid_bit) << ")\n";
    EXPECT_THROW(gemm::ForceInt8KernelGuard g(kernel), std::runtime_error);
  }
}

// ---- quantized linear forward ---------------------------------------------

TEST(QLinear, ForwardMatchesExactIntegerReference) {
  const std::int64_t m = 5;
  const std::int64_t in = 19;
  const std::int64_t out = 11;
  const auto w = random_matrix(in * out, -1.0F, 1.0F, 31);
  const auto x = random_matrix(m * in, -2.0F, 2.0F, 32);

  QuantBlob blob = quantize_weights(w.data(), in, out);
  blob.act_scale = activation_scale(absmax_of(x));
  const LinearQuant q = prepare(blob);
  ASSERT_EQ(q.in, in);
  ASSERT_EQ(q.out, out);

  const Tensor xt = Tensor::from_data({m, in}, x, false);
  Tensor y;
  {
    NoGradGuard no_grad;
    y = linear_forward(xt, q);
  }
  ASSERT_EQ(y.shape(), (Shape{m, out}));

  // The int8 path is exact integer math followed by one float multiply per
  // element; rebuilding that computation here must agree to float rounding.
  // Quantize with the encoding prepare() actually selected (8-bit on VNNI
  // hosts, 7-bit otherwise) so the reference matches either dispatch.
  std::vector<std::uint8_t> xq(static_cast<std::size_t>(m * in));
  reference::quantize_activations(x.data(), m * in, q.act_scale, xq.data(),
                                  q.encoding);
  const auto ys = y.data();
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < out; ++j) {
      std::int64_t acc = 0;
      for (std::int64_t p = 0; p < in; ++p) {
        acc += static_cast<std::int64_t>(xq[static_cast<std::size_t>(i * in + p)]) *
               blob.values[static_cast<std::size_t>(p * out + j)];
      }
      acc -= q.zero_correction[static_cast<std::size_t>(j)];
      const float expected = static_cast<float>(acc) *
                             q.dequant_scales[static_cast<std::size_t>(j)];
      EXPECT_FLOAT_EQ(ys[static_cast<std::size_t>(i * out + j)], expected);
    }
  }
}

TEST(QLinear, ForwardWithinAnalyticErrorBoundOfFp32) {
  const std::int64_t m = 4;
  const std::int64_t in = 24;
  const std::int64_t out = 9;
  const auto w = random_matrix(in * out, -1.0F, 1.0F, 41);
  const auto x = random_matrix(m * in, -1.5F, 1.5F, 42);

  QuantBlob blob = quantize_weights(w.data(), in, out);
  blob.act_scale = activation_scale(absmax_of(x));
  const LinearQuant q = prepare(blob);

  NoGradGuard no_grad;
  const Tensor y = linear_forward(Tensor::from_data({m, in}, x, false), q);
  const auto ys = y.data();
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < out; ++j) {
      double exact = 0.0;
      double bound = 1e-4;
      const float sw = blob.scales[static_cast<std::size_t>(j)];
      const float sx = blob.act_scale;
      for (std::int64_t p = 0; p < in; ++p) {
        const double xv = x[static_cast<std::size_t>(i * in + p)];
        const double wv = w[static_cast<std::size_t>(p * out + j)];
        exact += xv * wv;
        // |(x+ex)(w+ew) - xw| <= |x||ew| + |w||ex| + |ex||ew|, with the
        // per-element quantization errors ex <= sx/2, ew <= sw/2.
        bound += std::abs(xv) * sw * 0.5 + std::abs(wv) * sx * 0.5 +
                 sx * sw * 0.25;
      }
      EXPECT_NEAR(ys[static_cast<std::size_t>(i * out + j)], exact, bound);
    }
  }
}

TEST(QLinear, PrepareDerivesEncodingConstantsFromCanonicalScale) {
  const std::int64_t in = 8;
  const std::int64_t out = 3;
  const auto w = random_matrix(in * out, -1.0F, 1.0F, 51);
  QuantBlob blob = quantize_weights(w.data(), in, out);
  const float absmax = 1.75F;
  blob.act_scale = activation_scale(absmax);  // canonical 7-bit scale

  const LinearQuant q7 = prepare(blob, ActEncoding::k7Bit);
  EXPECT_EQ(q7.encoding, ActEncoding::k7Bit);
  EXPECT_EQ(q7.act_max, kActMax);
  EXPECT_EQ(q7.act_zero, kActZero);
  // 7-bit prepare must reproduce the blob's scale exactly (same absmax,
  // same divisor) so pre-existing artifacts serve byte-identically.
  EXPECT_EQ(q7.act_scale, blob.act_scale);

  const LinearQuant q8 = prepare(blob, ActEncoding::k8Bit);
  EXPECT_EQ(q8.encoding, ActEncoding::k8Bit);
  EXPECT_EQ(q8.act_max, kActMax8);
  EXPECT_EQ(q8.act_zero, kActZero8);
  EXPECT_EQ(q8.act_scale, activation_scale(absmax, ActEncoding::k8Bit));
  for (std::int64_t n = 0; n < out; ++n) {
    const auto i = static_cast<std::size_t>(n);
    EXPECT_EQ(q8.zero_correction[i], kActZero8 * q8.packed.col_sums[i]);
    EXPECT_EQ(q8.dequant_scales[i], q8.act_scale * blob.scales[i]);
  }
}

TEST(QLinear, ChainForwardMatchesComposedPathBitExactly) {
  // linear_chain_forward fuses layer 1's bias(+gelu) with layer 2's input
  // quantization into one eltwise sweep. Per eltwise kernel, the fused sweep
  // performs the identical IEEE ops as bias_gelu/bias_add followed by
  // linear_forward's entry quantization, so the outputs must be EQUAL, not
  // just close — for every GEMM kernel the prepared encoding admits.
  const std::int64_t m = 7;
  const std::int64_t in = 19;
  const std::int64_t mid = 13;
  const std::int64_t out = 5;
  const auto w1 = random_matrix(in * mid, -1.0F, 1.0F, 61);
  const auto w2 = random_matrix(mid * out, -1.0F, 1.0F, 62);
  const auto x = random_matrix(m * in, -2.0F, 2.0F, 63);
  const auto b1v = random_matrix(mid, -0.5F, 0.5F, 64);

  QuantBlob blob1 = quantize_weights(w1.data(), in, mid);
  blob1.act_scale = activation_scale(absmax_of(x));
  QuantBlob blob2 = quantize_weights(w2.data(), mid, out);
  blob2.act_scale = activation_scale(3.0F);  // plausible mid-layer absmax
  const Tensor xt = Tensor::from_data({m, in}, x, false);
  const Tensor b1 = Tensor::from_data({mid}, b1v, false);

  NoGradGuard no_grad;
  for (const bool gelu : {false, true}) {
    for (const gemm::Int8Kernel gemm_kernel : gemm::available_int8_kernels()) {
      const gemm::ForceInt8KernelGuard gemm_guard(gemm_kernel);
      const LinearQuant q1 = prepare(blob1);
      const LinearQuant q2 = prepare(blob2);
      if (!gemm::int8_kernel_allows_8bit(gemm_kernel) &&
          (q1.encoding == ActEncoding::k8Bit ||
           q2.encoding == ActEncoding::k8Bit)) {
        continue;  // maddubs cannot serve an 8-bit-prepared layer
      }
      for (const eltwise::Kernel elt_kernel : eltwise::available_kernels()) {
        const eltwise::ForceKernelGuard elt_guard(elt_kernel);
        const Tensor mid_y = gelu ? eltwise::bias_gelu(linear_forward(xt, q1), b1)
                                  : eltwise::bias_add(linear_forward(xt, q1), b1);
        const Tensor composed = linear_forward(mid_y, q2);
        const Tensor fused = linear_chain_forward(xt, q1, b1, gelu, q2);
        ASSERT_EQ(fused.shape(), composed.shape());
        for (std::size_t i = 0; i < composed.data().size(); ++i) {
          EXPECT_EQ(fused.data()[i], composed.data()[i])
              << "elt=" << eltwise::kernel_name(elt_kernel)
              << " gemm=" << gemm::int8_kernel_name(gemm_kernel)
              << " gelu=" << gelu << " i=" << i;
        }
      }
    }
  }
}

TEST(QLinear, PrepareRejectsUncalibratedAndMalformedBlobs) {
  const auto w = random_matrix(6, -1.0F, 1.0F, 51);
  QuantBlob ok = quantize_weights(w.data(), 3, 2);
  ok.act_scale = 0.0F;  // never calibrated
  EXPECT_THROW(prepare(ok), std::invalid_argument);

  QuantBlob bad = quantize_weights(w.data(), 3, 2);
  bad.act_scale = 0.5F;
  bad.scales.pop_back();
  EXPECT_THROW(prepare(bad), std::invalid_argument);
}

TEST(QLinear, AttachRoutesLinearUnderNoGradOnly) {
  util::Rng rng(61);
  nn::Linear linear(16, 8, rng);
  const Tensor x = Tensor::randn({4, 16}, rng);

  Tensor y_fp32;
  float seen_absmax = 0.0F;
  {
    NoGradGuard no_grad;
    CalibrationScope scope;
    y_fp32 = linear.forward(x);
    ASSERT_TRUE(scope.observed(&linear, 0));
    seen_absmax = scope.absmax(&linear, 0);
  }
  float expected_absmax = 0.0F;
  for (const float v : x.data()) expected_absmax = std::max(expected_absmax, std::abs(v));
  EXPECT_FLOAT_EQ(seen_absmax, expected_absmax);

  QuantBlob blob = quantize_weights(linear.weight().data().data(), 16, 8);
  blob.act_scale = activation_scale(seen_absmax);
  QuantState state;
  state["weight"] = blob;  // the layer itself is the root: path is empty
  attach(linear, state);
  EXPECT_TRUE(linear.quantized());

  NoGradGuard no_grad;
  const Tensor y_int8 = linear.forward(x);
  float max_diff = 0.0F;
  float max_ref = 0.0F;
  for (std::size_t i = 0; i < y_fp32.data().size(); ++i) {
    max_diff = std::max(max_diff, std::abs(y_int8.data()[i] - y_fp32.data()[i]));
    max_ref = std::max(max_ref, std::abs(y_fp32.data()[i]));
  }
  EXPECT_LE(max_diff, 0.05F * max_ref + 0.05F);
  EXPECT_GT(max_diff, 0.0F);  // the int8 path actually ran
}

TEST(QLinear, AttachThrowsOnNameDrift) {
  util::Rng rng(71);
  nn::Linear linear(4, 2, rng);
  QuantBlob blob = quantize_weights(linear.weight().data().data(), 4, 2);
  blob.act_scale = 1.0F;
  QuantState state;
  state["renamed_layer.weight"] = blob;
  EXPECT_THROW(attach(linear, state), std::runtime_error);
}

TEST(Calibration, ScopesNestAndRestore) {
  util::Rng rng(81);
  const Tensor small = Tensor::from_data({2}, {0.25F, -0.5F}, false);
  const Tensor large = Tensor::from_data({2}, {4.0F, -1.0F}, false);
  int key = 0;

  observe(&key, 0, large);  // no active scope: must be a no-op
  CalibrationScope outer;
  observe(&key, 0, small);
  EXPECT_FLOAT_EQ(outer.absmax(&key, 0), 0.5F);
  {
    CalibrationScope inner;
    observe(&key, 0, large);
    EXPECT_FLOAT_EQ(inner.absmax(&key, 0), 4.0F);
    EXPECT_FLOAT_EQ(outer.absmax(&key, 0), 0.5F);  // inner wins while alive
  }
  observe(&key, 1, large);
  EXPECT_FLOAT_EQ(outer.absmax(&key, 0), 0.5F);
  EXPECT_FLOAT_EQ(outer.absmax(&key, 1), 4.0F);
  EXPECT_FALSE(outer.observed(&key, 2));
  EXPECT_EQ(outer.absmax(&key, 2), 0.0F);
}

TEST(Precision, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_precision("fp32"), Precision::kFp32);
  EXPECT_EQ(parse_precision("int8"), Precision::kInt8);
  EXPECT_STREQ(precision_name(Precision::kFp32), "fp32");
  EXPECT_STREQ(precision_name(Precision::kInt8), "int8");
  EXPECT_THROW(
      {
        try {
          parse_precision("int4");
        } catch (const std::exception& e) {
          EXPECT_NE(std::string(e.what()).find("unsupported precision"),
                    std::string::npos);
          EXPECT_NE(std::string(e.what()).find("int4"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

// ---- artifact-level end-to-end --------------------------------------------

/// One tiny trained pipeline shared by the artifact tests (mirrors
/// ServeTest in test_serve.cpp; training once keeps the suite fast).
class QuantArtifactTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(data::generate_dataset(data::hhar_like(48)));
    core::PipelineConfig config = core::fast_profile();
    config.backbone.hidden_dim = 24;
    config.backbone.num_blocks = 1;
    config.backbone.num_heads = 2;
    config.backbone.ff_dim = 48;
    config.classifier.gru_hidden = 16;
    config.finetune.epochs = 1;
    pipeline_ = new core::Pipeline(*dataset_, data::Task::kActivityRecognition,
                                   config);
    (void)pipeline_->run(core::Method::kNoPretrain, 0.5);
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static serve::Artifact fp32_artifact() {
    return serve::Artifact::from_pipeline(*pipeline_);
  }

  static std::vector<std::vector<float>> calibration_windows(int count) {
    std::vector<std::vector<float>> windows;
    const auto& samples = dataset_->samples;
    for (int i = 0; i < count; ++i) {
      windows.push_back(samples[static_cast<std::size_t>(i) % samples.size()].values);
    }
    return windows;
  }

  static serve::Artifact int8_artifact() {
    return quantize_artifact(fp32_artifact(), calibration_windows(16));
  }

  static data::Dataset* dataset_;
  static core::Pipeline* pipeline_;
};

data::Dataset* QuantArtifactTest::dataset_ = nullptr;
core::Pipeline* QuantArtifactTest::pipeline_ = nullptr;

TEST_F(QuantArtifactTest, QuantizeArtifactMovesMatricesToQuantState) {
  const serve::Artifact fp32 = fp32_artifact();
  const serve::Artifact int8 = int8_artifact();

  EXPECT_EQ(int8.precision, Precision::kInt8);
  EXPECT_EQ(int8.manifest_version(), 3);
  EXPECT_EQ(fp32.manifest_version(), 2);

  ASSERT_TRUE(int8.backbone_quant.count("input_proj.weight"));
  EXPECT_FALSE(int8.backbone_state.count("input_proj.weight"));
  EXPECT_TRUE(int8.backbone_state.count("input_proj.bias"));  // biases stay fp32
  ASSERT_FALSE(int8.classifier_quant.empty());
  for (const auto& [key, blob] : int8.backbone_quant) {
    EXPECT_GT(blob.act_scale, 0.0F) << key << " was never calibrated";
    EXPECT_EQ(blob.values.size(),
              static_cast<std::size_t>(blob.rows * blob.cols));
    EXPECT_FALSE(fp32.backbone_state.at(key).empty());
  }
  // Every quantized matrix dequantizes close to its fp32 source.
  for (const auto& [key, blob] : int8.backbone_quant) {
    const auto& original = fp32.backbone_state.at(key);
    const auto deq = dequantize_weights(blob);
    ASSERT_EQ(deq.size(), original.size()) << key;
    for (std::size_t i = 0; i < deq.size(); ++i) {
      const auto col = i % static_cast<std::size_t>(blob.cols);
      EXPECT_LE(std::abs(deq[i] - original[i]), blob.scales[col] * 0.5F + 1e-6F);
    }
  }
}

TEST_F(QuantArtifactTest, RejectsDoubleQuantizationAndBadWindows) {
  const serve::Artifact int8 = int8_artifact();
  EXPECT_THROW(quantize_artifact(int8, calibration_windows(4)),
               std::runtime_error);
  EXPECT_THROW(quantize_artifact(fp32_artifact(), {}), std::invalid_argument);
  std::vector<std::vector<float>> wrong{{1.0F, 2.0F}};
  EXPECT_THROW(quantize_artifact(fp32_artifact(), wrong), std::invalid_argument);
}

TEST_F(QuantArtifactTest, Int8ArtifactRoundTripsAsV3Manifest) {
  const std::string path = temp_path("saga_quant_roundtrip.artifact");
  const serve::Artifact original = int8_artifact();
  original.save(path);

  // The on-disk file really is a v3 manifest.
  const util::Manifest manifest = util::load_manifest(path);
  EXPECT_EQ(manifest.require("precision"), "int8");
  EXPECT_FALSE(manifest.byte_blobs.empty());

  const serve::Artifact loaded = serve::Artifact::load(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.precision, Precision::kInt8);
  EXPECT_EQ(loaded.backbone_quant, original.backbone_quant);
  EXPECT_EQ(loaded.classifier_quant, original.classifier_quant);
  EXPECT_EQ(loaded.backbone_state, original.backbone_state);
  EXPECT_EQ(loaded.classifier_state, original.classifier_state);
  EXPECT_EQ(loaded.task, original.task);
}

TEST(QuantBundle, Int8BundleShrinksAtLeastTwofoldAtPaperSize) {
  // The tiny fixture model above is dominated by its unquantized positional
  // embedding, so the shrink ratio is measured at the paper's default model
  // size, where the Linear/GRU matrices carry most of the bytes (matching
  // what a real deployment ships).
  const models::BackboneConfig backbone_config;      // hidden 72, 4 blocks
  const models::ClassifierConfig classifier_config;  // GRU hidden 64
  models::LimuBertBackbone backbone(backbone_config);
  models::GruClassifier classifier(classifier_config);
  const serve::Artifact fp32 = serve::Artifact::from_models(
      backbone, classifier, data::Task::kActivityRecognition, "shrink-test");

  std::vector<std::vector<float>> windows;
  const auto window_size = static_cast<std::int64_t>(
      backbone_config.max_seq_len * backbone_config.input_channels);
  for (std::uint64_t s = 0; s < 4; ++s) {
    windows.push_back(random_matrix(window_size, -2.0F, 2.0F, 100 + s));
  }
  const serve::Artifact int8 = quantize_artifact(fp32, windows);

  const std::string fp32_path = temp_path("saga_quant_fp32.artifact");
  const std::string int8_path = temp_path("saga_quant_int8.artifact");
  fp32.save(fp32_path);
  int8.save(int8_path);
  const auto fp32_bytes = std::filesystem::file_size(fp32_path);
  const auto int8_bytes = std::filesystem::file_size(int8_path);
  std::filesystem::remove(fp32_path);
  std::filesystem::remove(int8_path);
  EXPECT_GE(static_cast<double>(fp32_bytes),
            2.0 * static_cast<double>(int8_bytes))
      << "fp32 " << fp32_bytes << " bytes vs int8 " << int8_bytes << " bytes";
}

TEST_F(QuantArtifactTest, Int8EngineTracksFp32Predictions) {
  serve::Engine fp32_engine(fp32_artifact());
  serve::Artifact int8 = int8_artifact();
  serve::Engine int8_engine(std::move(int8));
  EXPECT_EQ(int8_engine.precision(), Precision::kInt8);
  EXPECT_EQ(fp32_engine.precision(), Precision::kFp32);
  // The engine drops weight payloads after building models — quant blobs too.
  EXPECT_TRUE(int8_engine.artifact().backbone_quant.empty());

  const auto windows = calibration_windows(8);
  int agree = 0;
  for (const auto& w : windows) {
    const serve::Prediction pf = fp32_engine.predict(w);
    const serve::Prediction pq = int8_engine.predict(w);
    agree += pf.label == pq.label ? 1 : 0;
    float max_logit = 1e-6F;
    for (const float l : pf.logits) max_logit = std::max(max_logit, std::abs(l));
    for (std::size_t c = 0; c < pf.logits.size(); ++c) {
      EXPECT_LE(std::abs(pq.logits[c] - pf.logits[c]), 0.1F * max_logit + 0.1F);
    }
  }
  EXPECT_GE(agree, 7) << "int8 flipped more than one of 8 labels";
}

TEST_F(QuantArtifactTest, AccuracyDeltaWithinGate) {
  const serve::Artifact fp32 = fp32_artifact();
  const serve::Artifact int8 = int8_artifact();
  auto fb = fp32.make_backbone();
  auto fc = fp32.make_classifier();
  auto qb = int8.make_backbone();
  auto qc = int8.make_classifier();

  const auto& test_indices = pipeline_->split().test;
  const train::Metrics mf = train::evaluate(fb, fc, *dataset_, test_indices,
                                            pipeline_->task());
  const train::Metrics mq = train::evaluate(qb, qc, *dataset_, test_indices,
                                            pipeline_->task());
  ASSERT_GT(mf.num_samples, 0);
  // Gate: at most one window may flip on this tiny split (the fig6-12 sized
  // gate of <= 0.5pt lives in bench_quant_e2e / BASELINES.md).
  const double one_window = 1.0 / static_cast<double>(mf.num_samples);
  EXPECT_LE(std::abs(mf.accuracy - mq.accuracy), one_window + 1e-9);
}

TEST_F(QuantArtifactTest, AllServePathKernelsAgreeExactlyPerEncoding) {
  // Determinism contract end-to-end: the whole int8 forward is exact integer
  // math per GEMM call, so every kernel that accepts the prepared activation
  // encoding must reproduce the same logits bit for bit. The artifact is
  // attached under the ambient encoding (8-bit when a VNNI kernel is
  // dispatched, 7-bit otherwise; the test_quant_forced_7bit ctest variant
  // pins 7-bit so the maddubs kernel joins the comparison on VNNI hosts).
  const serve::Artifact int8 = int8_artifact();
  auto backbone = int8.make_backbone();
  auto classifier = int8.make_classifier();
  const ActEncoding encoding = preferred_act_encoding();
  NoGradGuard no_grad;
  util::Rng rng(91);
  const Tensor window = Tensor::randn(
      {1, int8.window_length(), int8.channels()}, rng);

  std::vector<std::pair<std::string, Tensor>> logits;
  for (const gemm::Int8Kernel kernel : gemm::available_int8_kernels()) {
    if (encoding == ActEncoding::k8Bit &&
        !gemm::int8_kernel_allows_8bit(kernel)) {
      std::cout << "[  SKIPPED ] " << gemm::int8_kernel_name(kernel)
                << ": 8-bit activation encoding exceeds its range\n";
      continue;
    }
    gemm::ForceInt8KernelGuard guard(kernel);
    logits.emplace_back(gemm::int8_kernel_name(kernel),
                        classifier.forward(backbone.encode(window)));
  }
  ASSERT_GE(logits.size(), 1U);
  const auto& [ref_name, ref] = logits.front();
  for (std::size_t k = 1; k < logits.size(); ++k) {
    const auto& [name, y] = logits[k];
    ASSERT_EQ(y.shape(), ref.shape());
    for (std::size_t i = 0; i < ref.data().size(); ++i) {
      EXPECT_EQ(y.data()[i], ref.data()[i])
          << "logit " << i << ": " << name << " vs " << ref_name;
    }
  }
}

// Batch isolation: a hostile window (NaN, ±Inf, 1e30) must not change its
// batch-mate's logits by a single bit, on the fp32 and the int8 artifact.
// Both sides run B=2, so every GEMM path choice (which depends on the row
// count) is the same and only the poisoned window's values differ.
TEST_F(QuantArtifactTest, PoisonedWindowLeavesBatchMateBitIdentical) {
  const auto windows = calibration_windows(2);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const serve::Artifact& artifact : {fp32_artifact(), int8_artifact()}) {
    SCOPED_TRACE(precision_name(artifact.precision));
    auto backbone = artifact.make_backbone();
    auto classifier = artifact.make_classifier();
    const auto logits_with_mate = [&](const std::vector<float>& mate) {
      std::vector<float> batch = windows[0];
      batch.insert(batch.end(), mate.begin(), mate.end());
      NoGradGuard no_grad;
      return classifier.forward(backbone.encode(Tensor::from_data(
          {2, artifact.window_length(), artifact.channels()},
          std::move(batch))));
    };
    const Tensor clean = logits_with_mate(windows[1]);
    for (const float poison : {std::nanf(""), kInf, -kInf, 1e30F}) {
      SCOPED_TRACE(poison);
      const Tensor mixed =
          logits_with_mate(std::vector<float>(windows[1].size(), poison));
      for (std::int64_t c = 0; c < artifact.num_classes(); ++c) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(mixed.at(c)),
                  std::bit_cast<std::uint32_t>(clean.at(c)))
            << "logit " << c;
      }
    }
  }
}

TEST_F(QuantArtifactTest, UnknownPrecisionFailsWithClearError) {
  const std::string path = temp_path("saga_quant_future.artifact");
  int8_artifact().save(path);
  // Simulate a bundle from a future build: same v3 container, a precision
  // this build does not implement.
  util::Manifest manifest = util::load_manifest(path);
  manifest.metadata["precision"] = "int4";
  util::save_manifest(path, manifest);
  EXPECT_THROW(
      {
        try {
          serve::Artifact::load(path);
        } catch (const std::runtime_error& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find("unsupported precision"), std::string::npos) << what;
          EXPECT_NE(what.find("int4"), std::string::npos) << what;
          throw;
        }
      },
      std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace saga::quant
