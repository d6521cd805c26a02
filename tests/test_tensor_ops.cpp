#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.hpp"
#include "reference.hpp"
#include "tensor/eltwise/eltwise.hpp"
#include "tensor/grad_mode.hpp"
#include "tensor/ops.hpp"
#include "tensor/reduce.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace saga {
namespace {

TEST(TensorFactory, ZerosOnesFull) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  for (const float v : z.data()) EXPECT_EQ(v, 0.0F);
  Tensor o = Tensor::ones({4});
  for (const float v : o.data()) EXPECT_EQ(v, 1.0F);
  Tensor f = Tensor::full({2, 2}, -1.5F);
  for (const float v : f.data()) EXPECT_EQ(v, -1.5F);
}

TEST(TensorFactory, FromDataValidatesSize) {
  EXPECT_THROW(Tensor::from_data({2, 2}, {1.0F, 2.0F}), std::invalid_argument);
}

TEST(TensorFactory, RandnIsSeeded) {
  util::Rng rng1(5);
  util::Rng rng2(5);
  Tensor a = Tensor::randn({10}, rng1);
  Tensor b = Tensor::randn({10}, rng2);
  for (std::int64_t i = 0; i < 10; ++i) EXPECT_EQ(a.at(i), b.at(i));
}

TEST(TensorBasics, SizeSupportsNegativeDims) {
  Tensor t = Tensor::zeros({2, 3, 4});
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_EQ(t.size(-3), 2);
  EXPECT_THROW(t.size(3), std::out_of_range);
}

TEST(TensorBasics, ItemRequiresScalar) {
  EXPECT_THROW(Tensor::zeros({2}).item(), std::logic_error);
  EXPECT_EQ(Tensor::scalar(3.5F).item(), 3.5F);
}

TEST(TensorBasics, CloneIsDeep) {
  Tensor a = Tensor::ones({3});
  Tensor b = a.clone();
  b.data()[0] = 7.0F;
  EXPECT_EQ(a.at(0), 1.0F);
}

TEST(ElementwiseForward, AddMulDiv) {
  Tensor a = Tensor::from_data({3}, {1.0F, 2.0F, 3.0F});
  Tensor b = Tensor::from_data({3}, {4.0F, 5.0F, 0.5F});
  EXPECT_EQ(add(a, b).at(1), 7.0F);
  EXPECT_EQ(mul(a, b).at(2), 1.5F);
  EXPECT_EQ(div(a, b).at(2), 6.0F);
}

TEST(ElementwiseForward, Broadcasting) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row = Tensor::from_data({3}, {10, 20, 30});
  Tensor col = Tensor::from_data({2, 1}, {100, 200});
  Tensor sum_row = add(a, row);
  EXPECT_EQ(sum_row.at(0), 11.0F);
  EXPECT_EQ(sum_row.at(5), 36.0F);
  Tensor sum_col = add(a, col);
  EXPECT_EQ(sum_col.at(0), 101.0F);
  EXPECT_EQ(sum_col.at(3), 204.0F);
}

TEST(ElementwiseForward, BroadcastRejectsIncompatible) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({2, 4});
  EXPECT_THROW(add(a, b), std::invalid_argument);
}

TEST(ElementwiseForward, UnaryValues) {
  Tensor x = Tensor::from_data({4}, {-1.0F, 0.0F, 1.0F, 2.0F});
  EXPECT_EQ(relu(x).at(0), 0.0F);
  EXPECT_EQ(relu(x).at(3), 2.0F);
  EXPECT_NEAR(reference::sigmoid(x).at(1), 0.5F, 1e-6F);
  EXPECT_NEAR(reference::tanh_op(x).at(2), std::tanh(1.0F), 1e-6F);
  EXPECT_NEAR(square(x).at(3), 4.0F, 1e-6F);
  EXPECT_NEAR(eltwise::bias_gelu(x, Tensor()).at(1), 0.0F, 1e-6F);
  EXPECT_NEAR(eltwise::bias_gelu(x, Tensor()).at(3), 1.9546F, 1e-3F);
}

TEST(ElementwiseForward, ScaleAddScalarNeg) {
  Tensor x = Tensor::from_data({2}, {1.0F, -2.0F});
  EXPECT_EQ(scale(x, 3.0F).at(1), -6.0F);
  EXPECT_EQ(add_scalar(x, 1.0F).at(1), -1.0F);
  EXPECT_EQ(reference::neg(x).at(0), -1.0F);
}

TEST(GradMode, NoGradSkipsTape) {
  Tensor a = Tensor::ones({2}, true);
  NoGradGuard guard;
  Tensor b = add(a, a);
  EXPECT_FALSE(b.requires_grad());
  EXPECT_EQ(b.impl()->node, nullptr);
}

TEST(GradMode, RestoredAfterGuard) {
  EXPECT_TRUE(grad_enabled());
  {
    NoGradGuard guard;
    EXPECT_FALSE(grad_enabled());
  }
  EXPECT_TRUE(grad_enabled());
}

TEST(Autograd, SimpleChain) {
  Tensor x = Tensor::from_data({1}, {3.0F}, true);
  Tensor y = mul(x, x);  // y = x^2, dy/dx = 2x = 6
  y.backward();
  EXPECT_NEAR(x.grad()[0], 6.0F, 1e-5F);
}

TEST(Autograd, SharedInputAccumulates) {
  Tensor x = Tensor::from_data({1}, {2.0F}, true);
  Tensor y = add(mul(x, x), x);  // y = x^2 + x, dy/dx = 2x + 1 = 5
  y.backward();
  EXPECT_NEAR(x.grad()[0], 5.0F, 1e-5F);
}

TEST(Autograd, ConstantsGetNoGrad) {
  Tensor x = Tensor::from_data({1}, {2.0F}, true);
  Tensor c = Tensor::from_data({1}, {10.0F});
  Tensor y = mul(x, c);
  y.backward();
  EXPECT_NEAR(x.grad()[0], 10.0F, 1e-5F);
  EXPECT_FALSE(c.has_grad());
}

TEST(Autograd, BackwardRequiresScalar) {
  Tensor x = Tensor::ones({3}, true);
  Tensor y = add(x, x);
  EXPECT_THROW(y.backward(), std::logic_error);
}

class BinaryGradCheck : public ::testing::TestWithParam<int> {};

TEST_P(BinaryGradCheck, MatchesNumericGradient) {
  util::Rng rng(100 + GetParam());
  Tensor a = Tensor::rand_uniform({2, 3}, rng, 0.5F, 2.0F);
  Tensor b = Tensor::rand_uniform({2, 3}, rng, 0.5F, 2.0F);
  const int op = GetParam();
  saga::testing::check_gradients(
      [&]() {
        switch (op) {
          case 0: return sum(add(a, b));
          case 2: return sum(mul(a, b));
          default: return sum(div(a, b));
        }
      },
      {a, b});
}

// The parameter seeds each op's inputs; the ids of deleted ops stay unused so
// every remaining op keeps its inputs.
INSTANTIATE_TEST_SUITE_P(AllBinaryOps, BinaryGradCheck, ::testing::Values(0, 2, 3));

class UnaryGradCheck : public ::testing::TestWithParam<int> {};

TEST_P(UnaryGradCheck, MatchesNumericGradient) {
  util::Rng rng(200 + GetParam());
  Tensor x = Tensor::rand_uniform({3, 2}, rng, 0.3F, 1.5F);
  const int op = GetParam();
  saga::testing::check_gradients(
      [&]() {
        switch (op) {
          case 0: return sum(relu(x));
          case 1: return sum(reference::tanh_op(x));
          case 2: return sum(reference::sigmoid(x));
          case 5: return sum(square(x));
          case 6: return sum(sqrt_op(x));
          case 7: return sum(eltwise::bias_gelu(x, Tensor()));
          case 8: return sum(scale(x, 2.5F));
          default: return sum(reference::neg(x));
        }
      },
      {x});
}

INSTANTIATE_TEST_SUITE_P(AllUnaryOps, UnaryGradCheck,
                         ::testing::Values(0, 1, 2, 5, 6, 7, 8, 9));

TEST(BroadcastGrad, ReducesOverBroadcastDims) {
  util::Rng rng(7);
  Tensor a = Tensor::rand_uniform({2, 3}, rng, -1.0F, 1.0F);
  Tensor bias = Tensor::rand_uniform({3}, rng, -1.0F, 1.0F);
  saga::testing::check_gradients([&]() { return sum(mul(add(a, bias), a)); },
                                 {a, bias});
}

TEST(Dropout, IdentityInEval) {
  util::Rng rng(1);
  Tensor x = Tensor::ones({100});
  Tensor y = dropout(x, 0.5, /*training=*/false, rng);
  for (const float v : y.data()) EXPECT_EQ(v, 1.0F);
}

TEST(Dropout, MasksAndRescalesInTraining) {
  util::Rng rng(2);
  Tensor x = Tensor::ones({10000});
  Tensor y = dropout(x, 0.25, /*training=*/true, rng);
  std::int64_t kept = 0;
  for (const float v : y.data()) {
    EXPECT_TRUE(v == 0.0F || std::abs(v - 1.0F / 0.75F) < 1e-5F);
    kept += v != 0.0F ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(kept) / 10000.0, 0.75, 0.03);
}

TEST(Dropout, RejectsFullDrop) {
  util::Rng rng(3);
  Tensor x = Tensor::ones({4});
  EXPECT_THROW(dropout(x, 1.0, true, rng), std::invalid_argument);
}

}  // namespace
}  // namespace saga
