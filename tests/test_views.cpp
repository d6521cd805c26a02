// The strided-view memory model: shape ops alias one shared Storage instead
// of copying. This suite pins the aliasing semantics — view-of-view
// composition, write-through visibility in both directions, gradient
// accumulation through overlapping views into one base buffer, clone
// decoupling — plus the stride-honoring at()/item() accessors and the
// zero-materializing-copy contract of a NoGrad backbone forward (counted by
// detail::materializing_copies(), the view analogue of
// autograd_nodes_created()).
#include <gtest/gtest.h>

#include <stdexcept>

#include "gradcheck.hpp"
#include "models/backbone.hpp"
#include "tensor/grad_mode.hpp"
#include "tensor/ops.hpp"
#include "tensor/reduce.hpp"
#include "tensor/shape_ops.hpp"
#include "util/rng.hpp"

namespace saga {
namespace {

TEST(Views, ReshapeOfContiguousAliasesStorage) {
  Tensor a = Tensor::from_data({2, 6}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  const std::uint64_t copies = detail::materializing_copies();
  Tensor b = reshape(a, {3, 4});
  Tensor c = squeeze(unsqueeze(b, 0), 0);
  EXPECT_EQ(detail::materializing_copies(), copies);
  EXPECT_EQ(b.impl()->storage, a.impl()->storage);
  EXPECT_EQ(c.impl()->storage, a.impl()->storage);
  EXPECT_TRUE(b.is_contiguous());
}

TEST(Views, TransposeAndSliceAreViews) {
  util::Rng rng(1);
  Tensor a = Tensor::randn({3, 4, 5}, rng);
  const std::uint64_t copies = detail::materializing_copies();
  Tensor t = transpose_last2(a);       // [3, 5, 4], strided
  Tensor s = slice(a, 2, 1, 3);        // [3, 4, 3], inner slice
  Tensor row = select(a, 1, 2);        // [3, 5]
  EXPECT_EQ(detail::materializing_copies(), copies);
  EXPECT_EQ(t.impl()->storage, a.impl()->storage);
  EXPECT_EQ(s.impl()->storage, a.impl()->storage);
  EXPECT_EQ(row.impl()->storage, a.impl()->storage);
  EXPECT_FALSE(t.is_contiguous());
  EXPECT_FALSE(s.is_contiguous());
}

TEST(Views, ViewOfViewComposition) {
  // transpose -> slice -> select, each a view of the previous one; every
  // element must still resolve to the right base-storage cell.
  util::Rng rng(2);
  Tensor a = Tensor::randn({2, 3, 4}, rng);
  Tensor t = transpose_last2(a);  // [2, 4, 3]
  Tensor s = slice(t, 1, 1, 2);   // [2, 2, 3] — rows 1..2 of the transpose
  Tensor v = select(s, 0, 1);     // [2, 3]
  ASSERT_EQ(v.shape(), (Shape{2, 3}));
  EXPECT_EQ(v.impl()->storage, a.impl()->storage);
  for (std::int64_t i = 0; i < 2; ++i) {
    for (std::int64_t j = 0; j < 3; ++j) {
      // v[i][j] = t[1][1 + i][j] = a[1][j][1 + i]
      EXPECT_EQ(v.at(i * 3 + j), a.at(1 * 12 + j * 4 + (1 + i)));
    }
  }
}

TEST(Views, WriteThroughBaseVisibleInViews) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = transpose_last2(a);  // [3, 2]
  Tensor r = reshape(a, {6});
  a.data()[4] = 50.0F;  // a[1][1]
  EXPECT_EQ(t.at(1 * 2 + 1), 50.0F);  // t[1][1] = a[1][1]
  EXPECT_EQ(r.at(4), 50.0F);
}

TEST(Views, WriteThroughViewVisibleInBase) {
  Tensor a = Tensor::from_data({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor row = slice(a, 0, 1, 1);  // [1, 2] — dense middle row, contiguous
  ASSERT_TRUE(row.is_contiguous());
  row.data()[0] = -9.0F;
  EXPECT_EQ(a.at(2), -9.0F);
}

TEST(Views, NonContiguousDataAccessThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor t = transpose_last2(a);
  EXPECT_THROW(t.data(), std::logic_error);
  EXPECT_NO_THROW(contiguous(t).data());
}

TEST(Views, CloneGathersAndDecouples) {
  Tensor a = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  Tensor t = transpose_last2(a);
  Tensor c = t.clone();
  EXPECT_TRUE(c.is_contiguous());
  EXPECT_NE(c.impl()->storage, a.impl()->storage);
  // Clone captured the gathered transpose: [1, 3, 2, 4].
  EXPECT_EQ(c.at(1), 3.0F);
  a.data()[1] = 99.0F;          // a[0][1], i.e. t[1][0]
  EXPECT_EQ(t.at(2), 99.0F);    // view sees the write...
  EXPECT_EQ(c.at(2), 2.0F);     // ...the clone does not.
}

TEST(Views, CloneDecouplesGraphAndStorage) {
  util::Rng rng(3);
  Tensor a = Tensor::randn({4}, rng, 1.0F, true);
  Tensor v = slice(a, 0, 1, 2);
  Tensor d = v.clone();
  EXPECT_EQ(d.impl()->node, nullptr);
  EXPECT_NE(d.impl()->storage, a.impl()->storage);
  // No graph edge back to the base: backward through the clone stops at it.
  sum(square(d)).backward();
  EXPECT_FALSE(a.has_grad());
  a.data()[1] = 123.0F;
  EXPECT_EQ(v.at(0), 123.0F);
  EXPECT_NE(d.at(0), 123.0F);
}

// Overlapping views of one base: each view's gradient lands in the shared
// base buffer, so covered-twice elements accumulate both contributions.
TEST(Views, GradAccumulatesThroughOverlappingViews) {
  Tensor a = Tensor::from_data({4}, {1, 2, 3, 4}, true);
  Tensor s1 = slice(a, 0, 0, 3);  // elements 0..2
  Tensor s2 = slice(a, 0, 1, 3);  // elements 1..3
  Tensor loss = add(sum(square(s1)), sum(square(s2)));
  loss.backward();
  // d/da_i = 2 * a_i * (#views covering i); coverage = {1, 2, 2, 1}.
  const float cover[] = {1.0F, 2.0F, 2.0F, 1.0F};
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(a.grad()[static_cast<std::size_t>(i)],
                    2.0F * a.at(i) * cover[i])
        << "element " << i;
  }
}

TEST(Views, GradScattersThroughTransposedSlice) {
  util::Rng rng(4);
  Tensor a = Tensor::randn({3, 4, 5}, rng);
  saga::testing::check_gradients(
      [&] { return sum(square(slice(transpose_last2(a), 1, 2, 2))); }, {a});
}

TEST(Views, GradThroughViewOfViewChain) {
  util::Rng rng(5);
  Tensor a = Tensor::randn({2, 6}, rng);
  saga::testing::check_gradients(
      [&] {
        return sum(square(select(reshape(a, {2, 3, 2}), 1, 1)));
      },
      {a});
}

// Regression: at() must honor strides/offset, not index raw storage.
TEST(Views, AtHonorsStridesAndOffset) {
  Tensor a = Tensor::from_data({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor t = transpose_last2(a);  // [[0,3],[1,4],[2,5]]
  EXPECT_EQ(t.at(0), 0.0F);
  EXPECT_EQ(t.at(1), 3.0F);
  EXPECT_EQ(t.at(3), 4.0F);
  EXPECT_EQ(t.at(4), 2.0F);
  Tensor s = slice(a, 1, 1, 2);  // [[1,2],[4,5]]
  EXPECT_EQ(s.at(0), 1.0F);
  EXPECT_EQ(s.at(3), 5.0F);
  EXPECT_THROW(s.at(4), std::out_of_range);
  Tensor col = select(a, 1, 2);  // [2, 5]
  EXPECT_EQ(col.at(0), 2.0F);
  EXPECT_EQ(col.at(1), 5.0F);
}

// Regression: item() on a one-element view must read through the offset.
TEST(Views, ItemHonorsOffset) {
  Tensor a = Tensor::from_data({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(select(select(a, 0, 1), 0, 2).item(), 5.0F);
  EXPECT_EQ(slice(select(a, 0, 1), 0, 1, 1).item(), 4.0F);
  EXPECT_THROW(a.item(), std::logic_error);
}

TEST(Views, CopyCounterCountsOnlyRealCopies) {
  util::Rng rng(6);
  Tensor a = Tensor::randn({3, 4}, rng);
  const std::uint64_t before = detail::materializing_copies();
  (void)contiguous(a);                     // identity, no copy
  (void)reshape(a, {4, 3});                // aliasing fast path
  (void)select(a, 0, 1);                   // view
  EXPECT_EQ(detail::materializing_copies(), before);
  (void)contiguous(transpose_last2(a));    // genuine gather
  EXPECT_EQ(detail::materializing_copies(), before + 1);
  (void)reshape(transpose_last2(a), {12});  // reshape's copy fallback
  EXPECT_EQ(detail::materializing_copies(), before + 2);
}

// The tentpole contract: a NoGrad backbone forward performs zero
// materializing copies — every contiguous reshape, transpose_last2, and
// last-dim slice on the hot path stays an aliasing view (and, as before,
// allocates zero tape nodes).
TEST(Views, NoGradBackboneForwardPerformsZeroCopies) {
  models::BackboneConfig config;
  config.num_blocks = 2;
  models::LimuBertBackbone backbone(config);
  backbone.set_training(false);
  util::Rng rng(7);
  const Tensor x = Tensor::randn({2, 16, 6}, rng);

  NoGradGuard no_grad;
  (void)backbone.encode(x);  // warm-up: surfaces lazy one-time init
  const std::uint64_t copies = detail::materializing_copies();
  const std::uint64_t nodes = detail::autograd_nodes_created();
  const Tensor out = backbone.encode(x);
  EXPECT_EQ(detail::materializing_copies(), copies)
      << "NoGrad backbone forward must not materialize any view";
  EXPECT_EQ(detail::autograd_nodes_created(), nodes);
  EXPECT_EQ(out.shape(), (Shape{2, 16, config.hidden_dim}));
}

}  // namespace
}  // namespace saga
