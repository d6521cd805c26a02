// The fused elementwise engine (src/tensor/eltwise/): every fused primitive
// gradchecked against finite differences across all dispatchable kernels,
// forced-scalar bit-identity against the composed ops and the references in
// tests/reference.hpp, cross-kernel closeness, NoGrad-vs-tape forward
// bit-identity, and the "NoGrad allocates zero tape nodes" contract of
// detail::make_result.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "gradcheck.hpp"
#include "models/backbone.hpp"
#include "quant/quant.hpp"
#include "reference.hpp"
#include "tensor/eltwise/eltwise.hpp"
#include "tensor/grad_mode.hpp"
#include "tensor/ops.hpp"
#include "tensor/reduce.hpp"
#include "tensor/shape_ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace saga;
using saga::testing::check_gradients;

std::vector<float> values_of(const Tensor& t) {
  return {t.data().begin(), t.data().end()};
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const auto av = a.data();
  const auto bv = b.data();
  for (std::size_t i = 0; i < av.size(); ++i) {
    ASSERT_EQ(av[i], bv[i]) << what << " diverges at element " << i;
  }
}

void expect_close(const Tensor& a, const Tensor& b, float tol, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const auto av = a.data();
  const auto bv = b.data();
  for (std::size_t i = 0; i < av.size(); ++i) {
    ASSERT_NEAR(av[i], bv[i], tol) << what << " diverges at element " << i;
  }
}

TEST(Eltwise, AvailableKernelsAlwaysContainScalar) {
  const auto kernels = eltwise::available_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front(), eltwise::Kernel::kScalar);
  EXPECT_EQ(eltwise::kernel_name(eltwise::Kernel::kScalar), "scalar");
  for (const auto kernel : kernels) {
    SCOPED_TRACE(eltwise::kernel_name(kernel));
    const eltwise::ForceKernelGuard guard(kernel);
    EXPECT_EQ(eltwise::kernel_name(), eltwise::kernel_name(kernel));
  }
}

TEST(Eltwise, BiasAddGradcheckAllKernels) {
  for (const auto kernel : eltwise::available_kernels()) {
    SCOPED_TRACE(eltwise::kernel_name(kernel));
    const eltwise::ForceKernelGuard guard(kernel);
    util::Rng rng(7);
    Tensor x = Tensor::randn({2, 3, 5}, rng);
    Tensor bias = Tensor::randn({5}, rng);
    check_gradients([&] { return sum(eltwise::bias_add(x, bias)); }, {x, bias});
    // A multi-dimensional tile (the positional [T, H] embedding's shape).
    Tensor tile = Tensor::randn({3, 5}, rng);
    check_gradients([&] { return sum(eltwise::bias_add(x, tile)); }, {x, tile});
  }
}

TEST(Eltwise, BiasGeluGradcheckAllKernels) {
  for (const auto kernel : eltwise::available_kernels()) {
    SCOPED_TRACE(eltwise::kernel_name(kernel));
    const eltwise::ForceKernelGuard guard(kernel);
    util::Rng rng(8);
    Tensor x = Tensor::randn({4, 6}, rng);
    Tensor bias = Tensor::randn({6}, rng);
    check_gradients([&] { return sum(eltwise::bias_gelu(x, bias)); }, {x, bias});
    // Bias-less fused GELU (the saga::gelu route).
    Tensor y = Tensor::randn({3, 7}, rng);
    check_gradients([&] { return sum(eltwise::bias_gelu(y, Tensor())); }, {y});
  }
}

TEST(Eltwise, ResidualLayerNormGradcheckAllKernels) {
  for (const auto kernel : eltwise::available_kernels()) {
    SCOPED_TRACE(eltwise::kernel_name(kernel));
    const eltwise::ForceKernelGuard guard(kernel);
    util::Rng rng(9);
    Tensor x = Tensor::randn({2, 3, 6}, rng);
    Tensor r = Tensor::randn({2, 3, 6}, rng);
    Tensor gamma = Tensor::rand_uniform({6}, rng, 0.5F, 1.5F);
    Tensor beta = Tensor::randn({6}, rng);
    check_gradients(
        [&] { return sum(eltwise::residual_layer_norm(x, r, gamma, beta)); },
        {x, r, gamma, beta});
    // Residual-less path (the nn::LayerNorm::forward route).
    check_gradients(
        [&] {
          return sum(eltwise::residual_layer_norm(x, Tensor(), gamma, beta));
        },
        {x, gamma, beta});
  }
}

TEST(Eltwise, ShapeValidation) {
  util::Rng rng(11);
  Tensor x = Tensor::randn({3, 4}, rng);
  EXPECT_THROW(eltwise::bias_add(x, Tensor::randn({3}, rng)),
               std::invalid_argument);
  EXPECT_THROW(eltwise::bias_add(x, Tensor::randn({4, 3}, rng)),
               std::invalid_argument);  // not a suffix of [3, 4]
  EXPECT_THROW(eltwise::bias_add(x, Tensor::randn({2, 3, 4}, rng)),
               std::invalid_argument);  // longer than x's shape
  EXPECT_THROW(eltwise::bias_gelu(x, Tensor::randn({2, 4}, rng)),
               std::invalid_argument);
  EXPECT_THROW(
      eltwise::residual_layer_norm(x, Tensor::randn({4, 3}, rng),
                                   Tensor::ones({4}), Tensor::zeros({4})),
      std::invalid_argument);
  EXPECT_THROW(eltwise::residual_layer_norm(x, Tensor(), Tensor::ones({3}),
                                            Tensor::zeros({4})),
               std::invalid_argument);
}

// The scalar kernel performs exactly the composed ops' per-element
// arithmetic: forced-scalar fused results must be bit-identical to the
// composed reference graph (saga::add, saga::gelu and
// reference::layer_norm_lastdim).
TEST(Eltwise, ForcedScalarMatchesComposedBitwise) {
  const eltwise::ForceKernelGuard guard(eltwise::Kernel::kScalar);
  util::Rng rng(12);
  Tensor x = Tensor::randn({4, 5, 8}, rng);
  Tensor r = Tensor::randn({4, 5, 8}, rng);
  Tensor bias = Tensor::randn({8}, rng);
  Tensor gamma = Tensor::rand_uniform({8}, rng, 0.5F, 1.5F);
  Tensor beta = Tensor::randn({8}, rng);
  Tensor pos = Tensor::randn({5, 8}, rng);

  expect_bitwise_equal(eltwise::bias_add(x, bias), add(x, bias), "bias_add");
  expect_bitwise_equal(eltwise::bias_gelu(x, bias), gelu(add(x, bias)),
                       "bias_gelu");
  expect_bitwise_equal(eltwise::residual_layer_norm(x, r, gamma, beta),
                       reference::layer_norm_lastdim(add(x, r), gamma, beta),
                       "residual_layer_norm");
  expect_bitwise_equal(eltwise::residual_layer_norm(x, Tensor(), gamma, beta),
                       reference::layer_norm_lastdim(x, gamma, beta),
                       "layer_norm");
  expect_bitwise_equal(eltwise::bias_add(x, pos), add(x, pos), "bias_add tile");
}

// Forced-scalar fused backward must also reproduce the composed graph's
// analytic gradients exactly (same arithmetic, same accumulation order).
TEST(Eltwise, ForcedScalarGradsMatchComposedGrads) {
  const eltwise::ForceKernelGuard guard(eltwise::Kernel::kScalar);
  const auto grads_of = [&](bool fused) {
    util::Rng local(13);
    Tensor x = Tensor::randn({3, 4, 8}, local, 1.0F, true);
    Tensor r = Tensor::randn({3, 4, 8}, local, 1.0F, true);
    Tensor bias = Tensor::randn({8}, local, 1.0F, true);
    Tensor gamma = Tensor::rand_uniform({8}, local, 0.5F, 1.5F, true);
    Tensor beta = Tensor::randn({8}, local, 1.0F, true);
    Tensor h = fused ? eltwise::bias_gelu(x, bias) : gelu(add(x, bias));
    Tensor y = fused ? eltwise::residual_layer_norm(h, r, gamma, beta)
                     : reference::layer_norm_lastdim(add(h, r), gamma, beta);
    sum(y).backward();
    std::vector<std::vector<float>> grads;
    for (Tensor* t : {&x, &r, &bias, &gamma, &beta}) {
      grads.emplace_back(t->grad().begin(), t->grad().end());
    }
    return grads;
  };
  const auto fused = grads_of(true);
  const auto composed = grads_of(false);
  ASSERT_EQ(fused.size(), composed.size());
  for (std::size_t t = 0; t < fused.size(); ++t) {
    ASSERT_EQ(fused[t].size(), composed[t].size());
    for (std::size_t i = 0; i < fused[t].size(); ++i) {
      ASSERT_EQ(fused[t][i], composed[t][i])
          << "tensor " << t << " grad element " << i;
    }
  }
}

// Every dispatchable kernel agrees with the scalar reference to rounding.
TEST(Eltwise, KernelsAgreeToRounding) {
  util::Rng rng(14);
  Tensor x = Tensor::randn({6, 9, 24}, rng);
  Tensor r = Tensor::randn({6, 9, 24}, rng);
  Tensor bias = Tensor::randn({24}, rng);
  Tensor gamma = Tensor::rand_uniform({24}, rng, 0.5F, 1.5F);
  Tensor beta = Tensor::randn({24}, rng);

  std::vector<Tensor> reference;
  {
    const eltwise::ForceKernelGuard guard(eltwise::Kernel::kScalar);
    reference = {eltwise::bias_add(x, bias), eltwise::bias_gelu(x, bias),
                 eltwise::residual_layer_norm(x, r, gamma, beta)};
  }
  for (const auto kernel : eltwise::available_kernels()) {
    SCOPED_TRACE(eltwise::kernel_name(kernel));
    const eltwise::ForceKernelGuard guard(kernel);
    expect_close(eltwise::bias_add(x, bias), reference[0], 0.0F, "bias_add");
    expect_close(eltwise::bias_gelu(x, bias), reference[1], 2e-4F, "bias_gelu");
    expect_close(eltwise::residual_layer_norm(x, r, gamma, beta), reference[2],
                 2e-4F, "residual_layer_norm");
  }
}

// Large-magnitude inputs saturate GELU instead of overflowing the vector
// exp: gelu(x) -> x for large positive x, -> 0 for large negative x, with
// gradient -> 1 / 0 — on every kernel, in every lane (a regression test for
// the AVX2 exp overflow that turned x >= ~10 into NaN).
TEST(Eltwise, GeluSaturatesAtLargeMagnitudes) {
  std::vector<float> values;
  for (const float magnitude : {9.0F, 10.05F, 12.0F, 50.0F, 1000.0F}) {
    values.push_back(magnitude);
    values.push_back(-magnitude);
  }
  while (values.size() % 8 != 0) values.push_back(0.0F);  // fill vector lanes
  const auto n = static_cast<std::int64_t>(values.size());
  for (const auto kernel : eltwise::available_kernels()) {
    SCOPED_TRACE(eltwise::kernel_name(kernel));
    const eltwise::ForceKernelGuard guard(kernel);
    Tensor x = Tensor::from_data({n}, values, true);
    Tensor y = eltwise::bias_gelu(x, Tensor());
    sum(y).backward();
    for (std::int64_t i = 0; i < n; ++i) {
      const float in = values[static_cast<std::size_t>(i)];
      const float out = y.at(i);
      const float grad = x.grad()[static_cast<std::size_t>(i)];
      ASSERT_FALSE(std::isnan(out)) << "gelu(" << in << ") is NaN";
      ASSERT_FALSE(std::isnan(grad)) << "gelu'(" << in << ") is NaN";
      if (in >= 9.0F) {
        ASSERT_EQ(out, in) << "gelu(" << in << ") should saturate to x";
        ASSERT_EQ(grad, 1.0F);
      } else if (in <= -9.0F) {
        ASSERT_EQ(out, 0.0F) << "gelu(" << in << ") should saturate to 0";
        ASSERT_EQ(grad, 0.0F);
      }
    }
  }
}

// Grad mode must never change forward arithmetic: NoGrad and tape forwards
// are bit-identical for every fused op.
TEST(Eltwise, NoGradVsTapeForwardBitIdentity) {
  for (const auto kernel : eltwise::available_kernels()) {
    SCOPED_TRACE(eltwise::kernel_name(kernel));
    const eltwise::ForceKernelGuard guard(kernel);
    util::Rng rng(15);
    Tensor x = Tensor::randn({4, 5, 16}, rng, 1.0F, true);
    Tensor r = Tensor::randn({4, 5, 16}, rng, 1.0F, true);
    Tensor bias = Tensor::randn({16}, rng, 1.0F, true);
    Tensor gamma = Tensor::rand_uniform({16}, rng, 0.5F, 1.5F, true);
    Tensor beta = Tensor::randn({16}, rng, 1.0F, true);

    const Tensor tape_gelu = eltwise::bias_gelu(x, bias);
    const Tensor tape_ln = eltwise::residual_layer_norm(x, r, gamma, beta);
    ASSERT_TRUE(tape_gelu.requires_grad());
    ASSERT_TRUE(tape_ln.requires_grad());
    NoGradGuard no_grad;
    const Tensor eval_gelu = eltwise::bias_gelu(x, bias);
    const Tensor eval_ln = eltwise::residual_layer_norm(x, r, gamma, beta);
    EXPECT_FALSE(eval_gelu.requires_grad());
    EXPECT_FALSE(eval_ln.requires_grad());
    expect_bitwise_equal(tape_gelu, eval_gelu, "bias_gelu");
    expect_bitwise_equal(tape_ln, eval_ln, "residual_layer_norm");
  }
}

// For a fixed kernel, repeated runs are bit-identical.
TEST(Eltwise, BitwiseStableAcrossRuns) {
  util::Rng rng(16);
  Tensor x = Tensor::randn({8, 13, 24}, rng);
  Tensor bias = Tensor::randn({24}, rng);
  Tensor gamma = Tensor::ones({24});
  Tensor beta = Tensor::zeros({24});
  expect_bitwise_equal(eltwise::bias_gelu(x, bias), eltwise::bias_gelu(x, bias),
                       "bias_gelu reruns");
  expect_bitwise_equal(eltwise::residual_layer_norm(x, Tensor(), gamma, beta),
                       eltwise::residual_layer_norm(x, Tensor(), gamma, beta),
                       "layer_norm reruns");
}

// The make_result contract: a NoGrad forward allocates zero AutogradNodes —
// across the whole backbone (fused eltwise + attention + gemm + shape ops),
// not just a single op — while the same forward under the tape records them.
TEST(Eltwise, NoGradForwardAllocatesZeroTapeNodes) {
  models::BackboneConfig config;
  config.num_blocks = 2;
  models::LimuBertBackbone backbone(config);
  backbone.set_training(false);
  util::Rng rng(17);
  const Tensor x = Tensor::randn({2, 16, 6}, rng);

  Tensor tape_out;
  const std::uint64_t before_tape = detail::autograd_nodes_created();
  tape_out = backbone.encode(x);
  EXPECT_GT(detail::autograd_nodes_created(), before_tape)
      << "tape forward should record autograd nodes";

  Tensor eval_out;
  {
    NoGradGuard no_grad;
    const std::uint64_t before = detail::autograd_nodes_created();
    eval_out = backbone.encode(x);
    EXPECT_EQ(detail::autograd_nodes_created(), before)
        << "NoGrad forward must not allocate any tape node";
  }
  EXPECT_FALSE(eval_out.requires_grad());
  // And grad mode must not perturb the numbers: end-to-end bit identity.
  expect_bitwise_equal(tape_out, eval_out, "backbone eval forward");
}

// Inputs that neither require grad nor carry history also skip the tape,
// even with grad mode on (the tape_active() second clause).
TEST(Eltwise, ConstantInputsSkipTape) {
  util::Rng rng(18);
  const Tensor x = Tensor::randn({3, 8}, rng);
  const Tensor bias = Tensor::randn({8}, rng);
  const std::uint64_t before = detail::autograd_nodes_created();
  const Tensor y = eltwise::bias_gelu(x, bias);
  EXPECT_EQ(detail::autograd_nodes_created(), before);
  EXPECT_FALSE(y.requires_grad());
}

// Non-contiguous view inputs (sliced, transposed, strided-select) are
// materialized once at op entry: results must be bit-identical to runs on
// pre-copied contiguous operands, under every dispatchable kernel.
TEST(Eltwise, ViewInputsMatchPrecopiedContiguous) {
  for (const auto kernel : eltwise::available_kernels()) {
    SCOPED_TRACE(eltwise::kernel_name(kernel));
    const eltwise::ForceKernelGuard guard(kernel);
    util::Rng rng(21);
    Tensor base = Tensor::randn({4, 9, 6}, rng);
    Tensor r_base = Tensor::randn({4, 6, 5}, rng);
    Tensor bias_base = Tensor::randn({6, 3}, rng);
    const Tensor x_view = slice(base, 1, 2, 5);        // [4, 5, 6], mid-dim
    const Tensor r_view = transpose_last2(r_base);     // [4, 5, 6]
    const Tensor bias_view = select(bias_base, 1, 1);  // [6] with stride 3
    ASSERT_FALSE(x_view.is_contiguous());
    ASSERT_FALSE(r_view.is_contiguous());
    ASSERT_FALSE(bias_view.is_contiguous());
    const Tensor x_pre = x_view.clone();
    const Tensor r_pre = r_view.clone();
    const Tensor bias_pre = bias_view.clone();
    Tensor gamma = Tensor::rand_uniform({6}, rng, 0.5F, 1.5F);
    Tensor beta = Tensor::randn({6}, rng);

    expect_bitwise_equal(eltwise::bias_add(x_view, bias_view),
                         eltwise::bias_add(x_pre, bias_pre), "bias_add");
    expect_bitwise_equal(eltwise::bias_gelu(x_view, bias_view),
                         eltwise::bias_gelu(x_pre, bias_pre), "bias_gelu");
    expect_bitwise_equal(
        eltwise::residual_layer_norm(x_view, r_view, gamma, beta),
        eltwise::residual_layer_norm(x_pre, r_pre, gamma, beta),
        "residual_layer_norm");
  }
}

// ---- fused bias(+gelu)+quantize epilogue (the int8 serve path) ------------

// The add variant performs the same IEEE add/mul/clamp/round as the composed
// bias_add-then-quantize chain (no contractible FMA shape, and cvtps/lrintf
// share round-to-nearest-even), so ALL kernels — not just forced-scalar —
// must agree bit-for-bit, on ragged shapes, including the zero-filled
// padding columns.
TEST(Eltwise, BiasActQuantAddVariantBitIdenticalAcrossKernels) {
  const std::vector<std::pair<std::int64_t, std::int64_t>> shapes{
      {1, 1}, {5, 13}, {8, 8}, {3, 144}, {13, 5}, {2, 72}, {7, 31}};
  for (const auto& [rows, d] : shapes) {
    const std::int64_t stride = (d + 3) / 4 * 4;  // gemm k-group padding
    util::Rng rng(31);
    std::vector<float> x(static_cast<std::size_t>(rows * d));
    std::vector<float> bias(static_cast<std::size_t>(d));
    for (auto& v : x) v = static_cast<float>(rng.uniform(-3.0, 3.0));
    for (auto& v : bias) v = static_cast<float>(rng.uniform(-0.5, 0.5));
    const float scale = 3.5F / 127.0F;

    std::vector<std::uint8_t> reference;
    for (const auto kernel : eltwise::available_kernels()) {
      SCOPED_TRACE(eltwise::kernel_name(kernel));
      const eltwise::ForceKernelGuard guard(kernel);
      std::vector<std::uint8_t> out(static_cast<std::size_t>(rows * stride),
                                    0xAB);
      eltwise::bias_act_quantize(x.data(), bias.data(), rows, d,
                                 /*gelu=*/false, scale, 128, 127, out.data(),
                                 stride);
      for (std::int64_t i = 0; i < rows; ++i) {
        for (std::int64_t p = d; p < stride; ++p) {
          ASSERT_EQ(out[static_cast<std::size_t>(i * stride + p)], 0)
              << "pad byte not zero-filled at row " << i;
        }
      }
      if (reference.empty()) {
        reference = out;
      } else {
        ASSERT_EQ(out, reference) << "rows=" << rows << " d=" << d;
      }
    }
  }
}

// Exactness against the two-pass composition it replaces: per kernel, the
// fused sweep equals that SAME kernel's bias_gelu (or bias_add) followed by
// reference::quantize_activations — integer codes, so EXPECT_EQ.
TEST(Eltwise, BiasActQuantMatchesTwoPassCompositionPerKernel) {
  const std::int64_t rows = 6;
  const std::int64_t d = 29;  // ragged: 3 full lanes + 5 tail
  const std::int64_t stride = (d + 3) / 4 * 4;
  util::Rng rng(32);
  const Tensor x = Tensor::randn({rows, d}, rng);
  const Tensor bias = Tensor::randn({d}, rng);
  const float scale = 4.0F / 63.0F;

  for (const bool gelu : {false, true}) {
    for (const auto kernel : eltwise::available_kernels()) {
      SCOPED_TRACE(eltwise::kernel_name(kernel) + (gelu ? "/gelu" : "/add"));
      const eltwise::ForceKernelGuard guard(kernel);
      const Tensor staged =
          gelu ? eltwise::bias_gelu(x, bias) : eltwise::bias_add(x, bias);
      std::vector<std::uint8_t> two_pass(
          static_cast<std::size_t>(rows * d));
      reference::quantize_activations(staged.data().data(), rows * d, scale,
                                      two_pass.data());

      std::vector<std::uint8_t> fused(static_cast<std::size_t>(rows * stride));
      eltwise::bias_act_quantize(x.data().data(), bias.data().data(), rows, d,
                                 gelu, scale, quant::kActZero, quant::kActMax,
                                 fused.data(), stride);
      for (std::int64_t i = 0; i < rows; ++i) {
        for (std::int64_t j = 0; j < d; ++j) {
          ASSERT_EQ(fused[static_cast<std::size_t>(i * stride + j)],
                    two_pass[static_cast<std::size_t>(i * d + j)])
              << "row " << i << " col " << j;
        }
      }
    }
  }
}

// nullptr bias = the pure entry-quantize sweep; must equal
// reference::quantize_activations bitwise on every kernel (both encodings'
// constants).
TEST(Eltwise, BiasActQuantNullBiasEqualsQuantizeActivations) {
  const std::int64_t rows = 5;
  const std::int64_t d = 19;
  util::Rng rng(33);
  std::vector<float> x(static_cast<std::size_t>(rows * d));
  for (auto& v : x) v = static_cast<float>(rng.uniform(-2.0, 2.0));

  for (const auto encoding :
       {quant::ActEncoding::k7Bit, quant::ActEncoding::k8Bit}) {
    const float scale = quant::activation_scale(2.0F, encoding);
    std::vector<std::uint8_t> expected(x.size());
    reference::quantize_activations(x.data(), rows * d, scale,
                                    expected.data(), encoding);
    for (const auto kernel : eltwise::available_kernels()) {
      SCOPED_TRACE(eltwise::kernel_name(kernel));
      const eltwise::ForceKernelGuard guard(kernel);
      std::vector<std::uint8_t> out(x.size());
      eltwise::bias_act_quantize(x.data(), nullptr, rows, d, /*gelu=*/false,
                                 scale, quant::act_zero(encoding),
                                 quant::act_max(encoding), out.data(), d);
      ASSERT_EQ(out, expected);
    }
  }
}

// Values past the code range saturate and NaN takes the zero point, with
// the same code on every kernel and in every column — the AVX2 body's
// 8-wide lanes and its scalar tail alike. Converting to int before clamping
// would wrap 3e9 to -qmax, and send 1e30 and ±Inf to 0 on the scalar path
// but to -qmax in the AVX2 body.
TEST(Eltwise, BiasActQuantSaturatesOutOfRangeAndZeroesNaN) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::vector<std::pair<float, int>> cases{
      {3e9F, 1},   {1e12F, 1},  {1e20F, 1}, {1e30F, 1},
      {kInf, 1},   {-3e9F, -1}, {-1e30F, -1}, {-kInf, -1},
      {std::nanf(""), 0}};
  const std::int64_t d = 11;  // columns 0-7: vector body; 8-10: tail
  for (const auto encoding :
       {quant::ActEncoding::k7Bit, quant::ActEncoding::k8Bit}) {
    const std::int32_t qmax = quant::act_max(encoding);
    const std::int32_t zero = quant::act_zero(encoding);
    for (const auto kernel : eltwise::available_kernels()) {
      SCOPED_TRACE(eltwise::kernel_name(kernel));
      const eltwise::ForceKernelGuard guard(kernel);
      for (const auto& [value, sign] : cases) {
        for (const std::int64_t col : {0, 5, 8, 10}) {
          std::vector<float> x(static_cast<std::size_t>(d), 0.5F);
          x[static_cast<std::size_t>(col)] = value;
          std::vector<std::uint8_t> out(x.size());
          eltwise::bias_act_quantize(x.data(), nullptr, 1, d, /*gelu=*/false,
                                     1.0F, zero, qmax, out.data(), d);
          std::vector<std::uint8_t> expected(x.size(),
                                             static_cast<std::uint8_t>(zero));
          expected[static_cast<std::size_t>(col)] =
              static_cast<std::uint8_t>(zero + sign * qmax);
          ASSERT_EQ(out, expected) << "value " << value << " at column " << col;
        }
      }
    }
  }
}

TEST(Eltwise, BiasActQuantRejectsShortStride) {
  std::vector<float> x(8);
  std::vector<std::uint8_t> out(8);
  EXPECT_THROW(eltwise::bias_act_quantize(x.data(), nullptr, 2, 4, false, 1.0F,
                                          64, 63, out.data(), 3),
               std::invalid_argument);
}

// The consumer seam: Linear's fused GELU epilogue equals Linear then GELU.
TEST(Eltwise, LinearFusedGeluMatchesComposed) {
  util::Rng rng(19);
  const nn::Linear linear(10, 6, rng);
  const Tensor x = Tensor::randn({4, 10}, rng);
  const Tensor fused = linear.forward(x, nn::Activation::kGelu);
  const Tensor composed = gelu(linear.forward(x));
  expect_close(fused, composed, 2e-4F, "linear gelu epilogue");
  const std::vector<float> first = values_of(fused);
  const std::vector<float> second = values_of(linear.forward(x, nn::Activation::kGelu));
  EXPECT_EQ(first, second);
}

}  // namespace
