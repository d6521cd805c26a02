#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.hpp"
#include "reference.hpp"
#include "tensor/eltwise/eltwise.hpp"
#include "tensor/loss.hpp"
#include "tensor/ops.hpp"
#include "tensor/reduce.hpp"
#include "util/rng.hpp"

namespace saga {
namespace {

TEST(Reduce, SumAndMean) {
  Tensor a = Tensor::from_data({4}, {1, 2, 3, 4});
  EXPECT_EQ(sum(a).item(), 10.0F);
  EXPECT_EQ(mean(a).item(), 2.5F);
}

TEST(Reduce, SoftmaxRowsSumToOne) {
  util::Rng rng(1);
  Tensor a = Tensor::randn({5, 7}, rng, 2.0F);
  Tensor s = reference::softmax_lastdim(a);
  for (std::int64_t r = 0; r < 5; ++r) {
    double total = 0.0;
    for (std::int64_t c = 0; c < 7; ++c) total += s.at(r * 7 + c);
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(Reduce, SoftmaxStableForLargeValues) {
  Tensor a = Tensor::from_data({1, 2}, {1000.0F, 1001.0F});
  Tensor s = reference::softmax_lastdim(a);
  EXPECT_NEAR(s.at(1), 1.0F / (1.0F + std::exp(-1.0F)), 1e-5F);
}

TEST(Reduce, LogSoftmaxMatchesLogOfSoftmax) {
  util::Rng rng(2);
  Tensor a = Tensor::randn({3, 4}, rng);
  Tensor ls = log_softmax_lastdim(a);
  Tensor s = reference::softmax_lastdim(a);
  for (std::int64_t i = 0; i < 12; ++i) {
    EXPECT_NEAR(ls.at(i), std::log(s.at(i)), 1e-5F);
  }
}

TEST(Reduce, LayerNormNormalizesRows) {
  util::Rng rng(3);
  Tensor x = Tensor::randn({4, 8}, rng, 3.0F);
  Tensor gamma = Tensor::ones({8});
  Tensor beta = Tensor::zeros({8});
  Tensor y = eltwise::residual_layer_norm(x, Tensor(), gamma, beta);
  for (std::int64_t r = 0; r < 4; ++r) {
    double mu = 0.0;
    double var = 0.0;
    for (std::int64_t c = 0; c < 8; ++c) mu += y.at(r * 8 + c);
    mu /= 8.0;
    for (std::int64_t c = 0; c < 8; ++c) {
      const double d = y.at(r * 8 + c) - mu;
      var += d * d;
    }
    var /= 8.0;
    EXPECT_NEAR(mu, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(Reduce, MeanOverTime) {
  Tensor x = Tensor::from_data({1, 2, 3}, {1, 2, 3, 5, 6, 7});
  Tensor m = mean_over_time(x);
  EXPECT_EQ(m.shape(), (Shape{1, 3}));
  EXPECT_NEAR(m.at(0), 3.0F, 1e-6F);
  EXPECT_NEAR(m.at(2), 5.0F, 1e-6F);
}

TEST(Reduce, ArgmaxLastdim) {
  Tensor x = Tensor::from_data({2, 3}, {0, 5, 2, 9, 1, 1});
  const auto idx = argmax_lastdim(x);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(ReduceGrad, Softmax) {
  util::Rng rng(4);
  Tensor a = Tensor::randn({2, 4}, rng);
  Tensor w = Tensor::randn({2, 4}, rng);  // weighting makes grad nontrivial
  saga::testing::check_gradients(
      [&]() { return sum(mul(reference::softmax_lastdim(a), w)); }, {a});
}

TEST(ReduceGrad, LogSoftmax) {
  util::Rng rng(5);
  Tensor a = Tensor::randn({2, 4}, rng);
  Tensor w = Tensor::randn({2, 4}, rng);
  saga::testing::check_gradients(
      [&]() { return sum(mul(log_softmax_lastdim(a), w)); }, {a});
}

TEST(ReduceGrad, LayerNormAllInputs) {
  util::Rng rng(6);
  Tensor x = Tensor::randn({3, 5}, rng);
  Tensor gamma = Tensor::rand_uniform({5}, rng, 0.5F, 1.5F);
  Tensor beta = Tensor::randn({5}, rng);
  Tensor w = Tensor::randn({3, 5}, rng);
  saga::testing::check_gradients(
      [&]() {
        return sum(mul(eltwise::residual_layer_norm(x, Tensor(), gamma, beta),
                       w));
      },
      {x, gamma, beta});
}

TEST(ReduceGrad, MeanOverTime) {
  util::Rng rng(7);
  Tensor x = Tensor::randn({2, 3, 4}, rng);
  saga::testing::check_gradients([&]() { return sum(square(mean_over_time(x))); },
                                 {x});
}

TEST(Loss, MseMaskedComputesMaskedAverage) {
  Tensor pred = Tensor::from_data({4}, {1, 2, 3, 4});
  Tensor target = Tensor::from_data({4}, {0, 0, 0, 0});
  Tensor mask = Tensor::from_data({4}, {1, 0, 1, 0});
  // (1 + 9) / 2 = 5
  EXPECT_NEAR(mse_masked(pred, target, mask).item(), 5.0F, 1e-5F);
}

TEST(Loss, MseMaskedEmptyMaskIsZero) {
  Tensor pred = Tensor::from_data({2}, {1, 2});
  Tensor target = Tensor::from_data({2}, {0, 0});
  Tensor mask = Tensor::zeros({2});
  EXPECT_EQ(mse_masked(pred, target, mask).item(), 0.0F);
}

TEST(Loss, MseMaskedGradOnlyOnMasked) {
  Tensor pred = Tensor::from_data({3}, {1, 2, 3}, true);
  Tensor target = Tensor::zeros({3});
  Tensor mask = Tensor::from_data({3}, {1, 0, 1});
  Tensor loss = mse_masked(pred, target, mask);
  loss.backward();
  EXPECT_NE(pred.grad()[0], 0.0F);
  EXPECT_EQ(pred.grad()[1], 0.0F);
  EXPECT_NE(pred.grad()[2], 0.0F);
}

TEST(LossGrad, MseMasked) {
  util::Rng rng(8);
  Tensor pred = Tensor::randn({2, 3}, rng);
  Tensor target = Tensor::randn({2, 3}, rng);
  Tensor mask = Tensor::from_data({2, 3}, {1, 0, 1, 1, 0, 1});
  saga::testing::check_gradients([&]() { return mse_masked(pred, target, mask); },
                                 {pred});
}

TEST(Loss, CrossEntropyMatchesManual) {
  Tensor logits = Tensor::from_data({2, 3}, {1, 2, 3, 0, 0, 0});
  const std::vector<std::int64_t> labels{2, 0};
  const float loss = cross_entropy(logits, labels).item();
  // row0: -log softmax(3 | 1,2,3); row1: -log(1/3)
  const float row0 = -std::log(std::exp(3.0F) /
                               (std::exp(1.0F) + std::exp(2.0F) + std::exp(3.0F)));
  const float row1 = std::log(3.0F);
  EXPECT_NEAR(loss, (row0 + row1) / 2.0F, 1e-5F);
}

TEST(Loss, CrossEntropyRejectsBadLabels) {
  Tensor logits = Tensor::zeros({2, 3});
  EXPECT_THROW(cross_entropy(logits, {0, 3}), std::out_of_range);
  EXPECT_THROW(cross_entropy(logits, {0}), std::invalid_argument);
}

TEST(LossGrad, CrossEntropy) {
  util::Rng rng(9);
  Tensor logits = Tensor::randn({3, 4}, rng);
  const std::vector<std::int64_t> labels{1, 3, 0};
  saga::testing::check_gradients([&]() { return cross_entropy(logits, labels); },
                                 {logits});
}

TEST(Loss, NtXentPositivePairsLowerLoss) {
  // Aligned positives should yield a smaller loss than anti-aligned ones.
  Tensor aligned = Tensor::from_data({4, 2}, {1, 0, 0, 1, 1, 0.1F, 0.1F, 1});
  Tensor opposed = Tensor::from_data({4, 2}, {1, 0, 0, 1, -1, 0, 0, -1});
  EXPECT_LT(nt_xent(aligned, 0.5F).item(), nt_xent(opposed, 0.5F).item());
}

TEST(Loss, NtXentRejectsTinyOrOddBatch) {
  EXPECT_THROW(nt_xent(Tensor::zeros({3, 4}), 0.5F), std::invalid_argument);
  EXPECT_THROW(nt_xent(Tensor::zeros({2, 4}), 0.5F), std::invalid_argument);
}

TEST(LossGrad, NtXent) {
  util::Rng rng(10);
  Tensor z = Tensor::randn({4, 3}, rng);
  saga::testing::check_gradients([&]() { return nt_xent(z, 0.5F); }, {z});
}

}  // namespace
}  // namespace saga
