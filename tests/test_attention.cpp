#include <gtest/gtest.h>

#include "gradcheck.hpp"
#include "nn/attention.hpp"
#include "reference.hpp"
#include "tensor/attention_fused.hpp"
#include "tensor/reduce.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace saga {
namespace {

TEST(FusedAttention, OutputShape) {
  util::Rng rng(1);
  Tensor q = Tensor::randn({2, 5, 8}, rng);
  Tensor k = Tensor::randn({2, 5, 8}, rng);
  Tensor v = Tensor::randn({2, 5, 8}, rng);
  Tensor out = fused_multi_head_attention(q, k, v, 2);
  EXPECT_EQ(out.shape(), (Shape{2, 5, 8}));
}

TEST(FusedAttention, RejectsBadShapes) {
  util::Rng rng(2);
  Tensor q = Tensor::randn({2, 5, 8}, rng);
  Tensor k = Tensor::randn({2, 5, 6}, rng);
  EXPECT_THROW(fused_multi_head_attention(q, k, q, 2), std::invalid_argument);
  EXPECT_THROW(fused_multi_head_attention(q, q, q, 3), std::invalid_argument);
}

TEST(FusedAttention, SingleHeadUniformValuesAveragesV) {
  // With q = 0, scores are constant -> softmax uniform -> output = mean of V.
  Tensor q = Tensor::zeros({1, 3, 2});
  Tensor k = Tensor::zeros({1, 3, 2});
  Tensor v = Tensor::from_data({1, 3, 2}, {1, 10, 2, 20, 3, 30});
  Tensor out = fused_multi_head_attention(q, k, v, 1);
  EXPECT_NEAR(out.at(0), 2.0F, 1e-5F);
  EXPECT_NEAR(out.at(1), 20.0F, 1e-5F);
}

TEST(FusedAttention, MatchesComposedPath) {
  // The module's fused forward must match the slice-per-head composed
  // reference built from the same parameters.
  util::Rng rng(3);
  nn::MultiHeadSelfAttention attention(8, 2, rng);
  Tensor x = Tensor::randn({2, 6, 8}, rng);

  Tensor fused = attention.forward(x);
  Tensor composed = reference::multi_head_attention(attention, x);
  ASSERT_EQ(fused.shape(), composed.shape());
  for (std::int64_t i = 0; i < fused.numel(); ++i) {
    EXPECT_NEAR(fused.at(i), composed.at(i), 1e-4F);
  }
}

TEST(FusedAttention, GradCheckAllInputs) {
  util::Rng rng(4);
  Tensor q = Tensor::randn({1, 4, 4}, rng, 0.5F);
  Tensor k = Tensor::randn({1, 4, 4}, rng, 0.5F);
  Tensor v = Tensor::randn({1, 4, 4}, rng, 0.5F);
  Tensor w = Tensor::randn({1, 4, 4}, rng);
  saga::testing::check_gradients(
      [&]() { return sum(mul(fused_multi_head_attention(q, k, v, 2), w)); },
      {q, k, v});
}

TEST(FusedAttention, GradMatchesComposedPathGrad) {
  util::Rng rng(5);
  nn::MultiHeadSelfAttention attention(8, 2, rng);
  Tensor x1 = Tensor::randn({2, 5, 8}, rng);
  Tensor x2 = x1.clone();
  x1.set_requires_grad(true);
  x2.set_requires_grad(true);

  attention.zero_grad();
  Tensor loss1 = sum(square(attention.forward(x1)));
  loss1.backward();

  attention.zero_grad();
  Tensor loss2 = sum(square(reference::multi_head_attention(attention, x2)));
  loss2.backward();

  EXPECT_NEAR(loss1.item(), loss2.item(), 1e-3F);
  const auto g1 = x1.grad();
  const auto g2 = x2.grad();
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_NEAR(g1[i], g2[i], 2e-3F) << "at " << i;
  }
}

}  // namespace
}  // namespace saga
