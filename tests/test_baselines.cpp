#include <gtest/gtest.h>

#include <cmath>

#include "baselines/augment.hpp"
#include "baselines/clhar.hpp"
#include "baselines/tpn.hpp"
#include "data/batch.hpp"
#include "data/synthetic.hpp"

namespace saga::baselines {
namespace {

data::Dataset tiny_dataset(std::int64_t n = 48, std::int64_t window = 40) {
  data::SyntheticSpec spec = data::hhar_like(n);
  spec.window_length = window;
  return data::generate_dataset(spec);
}

Tensor tiny_batch(const data::Dataset& d, std::int64_t n) {
  std::vector<std::int64_t> indices;
  for (std::int64_t i = 0; i < n; ++i) indices.push_back(i);
  return data::make_batch(d, indices, data::Task::kActivityRecognition).inputs;
}

// Every sample of x through the same transform.
Tensor apply_to_all(const Tensor& x, Augmentation augmentation,
                    std::uint64_t seed) {
  const std::vector<std::int32_t> ids(static_cast<std::size_t>(x.size(0)),
                                      static_cast<std::int32_t>(augmentation));
  return apply_per_sample(x, ids, seed);
}

TEST(Augment, IdentityLeavesDataUntouched) {
  const auto d = tiny_dataset();
  const Tensor x = tiny_batch(d, 4);
  const Tensor y = apply_to_all(x, Augmentation::kIdentity, 1);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(x.at(i), y.at(i));
}

TEST(Augment, AllTransformsPreserveShape) {
  const auto d = tiny_dataset();
  const Tensor x = tiny_batch(d, 4);
  for (std::int32_t id = 0; id < kNumAugmentations; ++id) {
    const Tensor y = apply_to_all(x, static_cast<Augmentation>(id), 2);
    EXPECT_EQ(y.shape(), x.shape()) << "augmentation " << id;
  }
}

TEST(Augment, RotationPreservesTriadNorms) {
  const auto d = tiny_dataset();
  const Tensor x = tiny_batch(d, 2);
  const Tensor y = apply_to_all(x, Augmentation::kRotation, 3);
  const std::int64_t length = x.size(1);
  const std::int64_t channels = x.size(2);
  for (std::int64_t t = 0; t < length; ++t) {
    for (std::int64_t s = 0; s < channels / 3; ++s) {
      double nx = 0.0;
      double ny = 0.0;
      for (int a = 0; a < 3; ++a) {
        const std::int64_t idx = t * channels + s * 3 + a;
        nx += double(x.at(idx)) * x.at(idx);
        ny += double(y.at(idx)) * y.at(idx);
      }
      EXPECT_NEAR(std::sqrt(nx), std::sqrt(ny), 1e-3);
    }
  }
}

TEST(Augment, TimeReversalIsInvolution) {
  const auto d = tiny_dataset();
  const Tensor x = tiny_batch(d, 2);
  // Applying reversal twice with any seeds restores the input (no randomness
  // in the transform itself).
  const Tensor once = apply_to_all(x, Augmentation::kTimeReversal, 4);
  const Tensor twice = apply_to_all(once, Augmentation::kTimeReversal, 5);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(twice.at(i), x.at(i));
}

TEST(Augment, ScalingIsUniformPerWindow) {
  const auto d = tiny_dataset();
  const Tensor x = tiny_batch(d, 1);
  const Tensor y = apply_to_all(x, Augmentation::kScaling, 6);
  // Ratio must be constant wherever x != 0.
  double ratio = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (std::abs(x.at(i)) > 1e-3F) {
      const double r = double(y.at(i)) / x.at(i);
      if (ratio == 0.0) ratio = r;
      EXPECT_NEAR(r, ratio, 1e-3);
    }
  }
  EXPECT_GT(ratio, 0.75);
  EXPECT_LT(ratio, 1.25);
}

TEST(Augment, RandomViewChangesData) {
  const auto d = tiny_dataset();
  const Tensor x = tiny_batch(d, 8);
  const Tensor v1 = random_view(x, 10);
  const Tensor v2 = random_view(x, 11);
  double diff1 = 0.0;
  double diff12 = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    diff1 += std::abs(v1.at(i) - x.at(i));
    diff12 += std::abs(v1.at(i) - v2.at(i));
  }
  EXPECT_GT(diff1, 1.0);   // views differ from the original
  EXPECT_GT(diff12, 1.0);  // and from each other
}

TEST(Augment, PerSampleValidatesIds) {
  const auto d = tiny_dataset();
  const Tensor x = tiny_batch(d, 2);
  EXPECT_THROW(apply_per_sample(x, {0}, 1), std::invalid_argument);
  EXPECT_THROW(apply_per_sample(x, {0, 99}, 1), std::out_of_range);
}

TEST(ClHar, LossDecreasesOverTraining) {
  const auto d = tiny_dataset(64);
  models::BackboneConfig bc;
  bc.input_channels = d.channels;
  bc.max_seq_len = d.window_length;
  bc.hidden_dim = 16;
  bc.num_blocks = 1;
  bc.num_heads = 2;
  bc.ff_dim = 32;
  models::LimuBertBackbone backbone(bc);

  std::vector<std::int64_t> indices;
  for (std::int64_t i = 0; i < d.size(); ++i) indices.push_back(i);
  ClHarConfig config;
  config.epochs = 6;
  config.batch_size = 16;
  const auto stats = pretrain_clhar(backbone, d, indices, config);
  ASSERT_EQ(stats.epoch_losses.size(), 6U);
  EXPECT_LT(stats.epoch_losses.back(), stats.epoch_losses.front());
}

TEST(Tpn, LearnsToClassifyTransforms) {
  const auto d = tiny_dataset(64);
  models::BackboneConfig bc;
  bc.input_channels = d.channels;
  bc.max_seq_len = d.window_length;
  bc.hidden_dim = 16;
  bc.num_blocks = 1;
  bc.num_heads = 2;
  bc.ff_dim = 32;
  models::LimuBertBackbone backbone(bc);

  std::vector<std::int64_t> indices;
  for (std::int64_t i = 0; i < d.size(); ++i) indices.push_back(i);
  TpnConfig config;
  config.epochs = 8;
  config.batch_size = 16;
  const auto stats = pretrain_tpn(backbone, d, indices, config);
  EXPECT_LT(stats.epoch_losses.back(), stats.epoch_losses.front());
  // Better than the 1/7 chance level on its own pretext task.
  EXPECT_GT(stats.final_transform_accuracy, 1.2 / kNumAugmentations);
}

TEST(ClHar, RejectsTooFewSamples) {
  const auto d = tiny_dataset(4);
  models::BackboneConfig bc;
  bc.input_channels = d.channels;
  bc.max_seq_len = d.window_length;
  bc.hidden_dim = 8;
  bc.num_blocks = 1;
  bc.num_heads = 2;
  bc.ff_dim = 16;
  models::LimuBertBackbone backbone(bc);
  EXPECT_THROW(pretrain_clhar(backbone, d, {0}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace saga::baselines
