#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "data/batch.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"

namespace saga::data {
namespace {

Dataset tiny_dataset() {
  SyntheticSpec spec = hhar_like(200);
  spec.window_length = 40;
  return generate_dataset(spec);
}

TEST(Synthetic, SpecsMatchPaperTable2) {
  const auto hhar = hhar_like();
  EXPECT_EQ(hhar.num_activities, 6);
  EXPECT_EQ(hhar.num_users, 9);
  EXPECT_EQ(hhar.channels, 6);
  EXPECT_EQ(hhar.num_samples, 9166);
  EXPECT_EQ(hhar.window_length, 120);

  const auto motion = motion_like();
  EXPECT_EQ(motion.num_activities, 6);
  EXPECT_EQ(motion.num_users, 24);
  EXPECT_EQ(motion.num_samples, 4534);

  const auto shoaib = shoaib_like();
  EXPECT_EQ(shoaib.num_activities, 7);
  EXPECT_EQ(shoaib.num_users, 10);
  EXPECT_EQ(shoaib.num_placements, 5);
  EXPECT_EQ(shoaib.channels, 9);
  EXPECT_EQ(shoaib.num_samples, 10500);
}

TEST(Synthetic, GeneratesRequestedShape) {
  const Dataset d = tiny_dataset();
  EXPECT_EQ(d.size(), 200);
  for (const auto& s : d.samples) {
    EXPECT_EQ(s.values.size(), 40U * 6U);
    EXPECT_GE(s.activity, 0);
    EXPECT_LT(s.activity, d.num_activities);
    EXPECT_GE(s.user, 0);
    EXPECT_LT(s.user, d.num_users);
    EXPECT_GE(s.placement, 0);
    EXPECT_LT(s.placement, d.num_placements);
  }
}

TEST(Synthetic, DeterministicForSameSeed) {
  const Dataset a = tiny_dataset();
  const Dataset b = tiny_dataset();
  ASSERT_EQ(a.size(), b.size());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const auto& sa = a.samples[static_cast<std::size_t>(i)];
    const auto& sb = b.samples[static_cast<std::size_t>(i)];
    EXPECT_EQ(sa.activity, sb.activity);
    EXPECT_EQ(sa.values, sb.values);
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticSpec spec = hhar_like(50);
  spec.window_length = 30;
  const Dataset a = generate_dataset(spec);
  spec.seed ^= 1;
  const Dataset b = generate_dataset(spec);
  bool any_diff = false;
  for (std::int64_t i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = a.samples[static_cast<std::size_t>(i)].values !=
               b.samples[static_cast<std::size_t>(i)].values;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Synthetic, ValuesAreBounded) {
  const Dataset d = tiny_dataset();
  for (const auto& s : d.samples) {
    for (const float v : s.values) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_LT(std::abs(v), 50.0F);
    }
  }
}

TEST(Synthetic, MagnetometerIsUnitNorm) {
  SyntheticSpec spec = shoaib_like(30);
  spec.window_length = 20;
  const Dataset d = generate_dataset(spec);
  for (const auto& s : d.samples) {
    for (std::int64_t t = 0; t < 20; ++t) {
      double norm_sq = 0.0;
      for (int c = 6; c < 9; ++c) {
        const float v = s.values[static_cast<std::size_t>(t * 9 + c)];
        norm_sq += double(v) * v;
      }
      EXPECT_NEAR(norm_sq, 1.0, 1e-6);
    }
  }
}

TEST(Synthetic, RejectsBadSpecs) {
  SyntheticSpec spec = hhar_like(10);
  spec.channels = 7;
  EXPECT_THROW(generate_dataset(spec), std::invalid_argument);
  spec = hhar_like(0);
  EXPECT_THROW(generate_dataset(spec), std::invalid_argument);
}

TEST(Dataset, LabelsPerTask) {
  const Dataset d = tiny_dataset();
  EXPECT_EQ(d.label(0, Task::kActivityRecognition), d.samples[0].activity);
  EXPECT_EQ(d.label(0, Task::kUserAuthentication), d.samples[0].user);
  EXPECT_EQ(d.label(0, Task::kDevicePlacement), d.samples[0].placement);
  EXPECT_EQ(d.num_classes(Task::kActivityRecognition), 6);
  EXPECT_EQ(d.num_classes(Task::kUserAuthentication), 9);
}

TEST(Split, ProportionsAndDisjointness) {
  const Dataset d = tiny_dataset();
  const Split split = split_dataset(d, 0.6, 0.2, 42);
  EXPECT_EQ(split.train.size() + split.validation.size() + split.test.size(), 200U);
  EXPECT_NEAR(static_cast<double>(split.train.size()), 120.0, 1.0);
  EXPECT_NEAR(static_cast<double>(split.validation.size()), 40.0, 1.0);
  std::set<std::int64_t> all;
  for (const auto idx : split.train) all.insert(idx);
  for (const auto idx : split.validation) all.insert(idx);
  for (const auto idx : split.test) all.insert(idx);
  EXPECT_EQ(all.size(), 200U);
}

TEST(Split, DeterministicInSeed) {
  const Dataset d = tiny_dataset();
  const Split a = split_dataset(d, 0.6, 0.2, 5);
  const Split b = split_dataset(d, 0.6, 0.2, 5);
  EXPECT_EQ(a.train, b.train);
  const Split c = split_dataset(d, 0.6, 0.2, 6);
  EXPECT_NE(a.train, c.train);
}

TEST(Split, RejectsBadFractions) {
  const Dataset d = tiny_dataset();
  EXPECT_THROW(split_dataset(d, 0.9, 0.2, 1), std::invalid_argument);
  EXPECT_THROW(split_dataset(d, 0.0, 0.2, 1), std::invalid_argument);
}

TEST(Subsample, LabellingRateIsStratified) {
  const Dataset d = tiny_dataset();
  const Split split = split_dataset(d, 0.6, 0.2, 42);
  const auto subset =
      subsample_labelled(d, split.train, Task::kActivityRecognition, 0.2, 7);
  // Every class present in train keeps at least one sample.
  std::map<std::int32_t, int> train_counts;
  std::map<std::int32_t, int> sub_counts;
  for (const auto idx : split.train) {
    ++train_counts[d.label(idx, Task::kActivityRecognition)];
  }
  for (const auto idx : subset) {
    ++sub_counts[d.label(idx, Task::kActivityRecognition)];
  }
  for (const auto& [label, count] : train_counts) {
    EXPECT_GE(sub_counts[label], 1) << "class " << label;
    EXPECT_LE(sub_counts[label], count);
  }
  EXPECT_LT(subset.size(), split.train.size() / 2);
}

TEST(Subsample, PerClassCapsCounts) {
  const Dataset d = tiny_dataset();
  const Split split = split_dataset(d, 0.6, 0.2, 42);
  const auto subset =
      subsample_per_class(d, split.train, Task::kActivityRecognition, 3, 7);
  std::map<std::int32_t, int> counts;
  for (const auto idx : subset) ++counts[d.label(idx, Task::kActivityRecognition)];
  for (const auto& [label, count] : counts) EXPECT_LE(count, 3);
}

TEST(Subsample, RejectsBadRate) {
  const Dataset d = tiny_dataset();
  const Split split = split_dataset(d, 0.6, 0.2, 42);
  EXPECT_THROW(
      subsample_labelled(d, split.train, Task::kActivityRecognition, 0.0, 1),
      std::invalid_argument);
  EXPECT_THROW(
      subsample_labelled(d, split.train, Task::kActivityRecognition, 1.1, 1),
      std::invalid_argument);
}

TEST(Batch, PacksRowMajor) {
  const Dataset d = tiny_dataset();
  const Batch batch = make_batch(d, {0, 5, 9}, Task::kUserAuthentication);
  EXPECT_EQ(batch.inputs.shape(), (Shape{3, 40, 6}));
  EXPECT_EQ(batch.labels.size(), 3U);
  EXPECT_EQ(batch.labels[1], d.samples[5].user);
  // First row of sample 5 sits at offset 1*40*6.
  EXPECT_EQ(batch.inputs.at(40 * 6), d.samples[5].values[0]);
}

TEST(BatchIterator, CoversEpochExactlyOnce) {
  const Dataset d = tiny_dataset();
  std::vector<std::int64_t> indices;
  for (std::int64_t i = 0; i < 50; ++i) indices.push_back(i);
  BatchIterator it(d, indices, Task::kActivityRecognition, 16, 3);
  std::multiset<std::int64_t> seen;
  Batch batch;
  int batches = 0;
  while (it.next(batch)) {
    ++batches;
    for (const auto idx : batch.indices) seen.insert(idx);
  }
  EXPECT_EQ(batches, 4);
  EXPECT_EQ(seen.size(), 50U);
  for (const auto idx : indices) EXPECT_EQ(seen.count(idx), 1U);
}

TEST(BatchIterator, ReshufflesBetweenEpochs) {
  const Dataset d = tiny_dataset();
  std::vector<std::int64_t> indices;
  for (std::int64_t i = 0; i < 64; ++i) indices.push_back(i);
  BatchIterator it(d, indices, Task::kActivityRecognition, 64, 4);
  Batch first;
  ASSERT_TRUE(it.next(first));
  it.reset();
  Batch second;
  ASSERT_TRUE(it.next(second));
  EXPECT_NE(first.indices, second.indices);
}

}  // namespace
}  // namespace saga::data
