// The fused GRU cell (eltwise::gru_cell + nn::GRUCell::step): gradcheck
// against finite differences on every dispatchable kernel, forced-scalar
// bit-identity against the composed gate chain of tests/reference.hpp
// (forward AND backward, cell level and full multi-layer GRU / classifier
// level), cross-kernel rounding agreement, strided-view gi consumption, and
// the NoGrad zero-tape-node / zero-copy contract over the recurrent loop.
#include <gtest/gtest.h>

#include <vector>

#include "gradcheck.hpp"
#include "models/classifier.hpp"
#include "nn/gru.hpp"
#include "reference.hpp"
#include "tensor/eltwise/eltwise.hpp"
#include "tensor/grad_mode.hpp"
#include "tensor/loss.hpp"
#include "tensor/ops.hpp"
#include "tensor/reduce.hpp"
#include "tensor/shape_ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace saga;
using saga::testing::check_gradients;

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const Tensor ac = contiguous(a);
  const Tensor bc = contiguous(b);
  const auto av = ac.data();
  const auto bv = bc.data();
  for (std::size_t i = 0; i < av.size(); ++i) {
    ASSERT_EQ(av[i], bv[i]) << what << " diverges at element " << i;
  }
}

void expect_close(const Tensor& a, const Tensor& b, float tol,
                  const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const auto av = contiguous(a).data();
  const auto bv = contiguous(b).data();
  for (std::size_t i = 0; i < av.size(); ++i) {
    ASSERT_NEAR(av[i], bv[i], tol) << what << " diverges at element " << i;
  }
}

TEST(GruCell, ShapeValidation) {
  util::Rng rng(1);
  Tensor gi = Tensor::randn({2, 9}, rng);
  Tensor gh = Tensor::randn({2, 9}, rng);
  Tensor h = Tensor::randn({2, 3}, rng);
  EXPECT_NO_THROW(eltwise::gru_cell(gi, gh, h));
  EXPECT_THROW(eltwise::gru_cell(Tensor::zeros({2, 6}), gh, h),
               std::invalid_argument);
  EXPECT_THROW(eltwise::gru_cell(gi, Tensor::zeros({3, 9}), h),
               std::invalid_argument);
  EXPECT_THROW(eltwise::gru_cell(gi, gh, Tensor::zeros({2, 3, 1})),
               std::invalid_argument);
}

TEST(GruCell, GradcheckAllKernels) {
  for (const auto kernel : eltwise::available_kernels()) {
    SCOPED_TRACE(eltwise::kernel_name(kernel));
    const eltwise::ForceKernelGuard guard(kernel);
    util::Rng rng(2);
    Tensor gi = Tensor::randn({3, 12}, rng);
    Tensor gh = Tensor::randn({3, 12}, rng);
    Tensor h = Tensor::randn({3, 4}, rng);
    check_gradients([&] { return sum(square(eltwise::gru_cell(gi, gh, h))); },
                    {gi, gh, h});
  }
}

// The fused cell must consume a row-strided gi view (a timestep selected
// from a [B, T, 3H] gate buffer) copy-free and produce the same bits as a
// densely materialized gi — forward and scattered gradient alike.
TEST(GruCell, StridedGiViewMatchesDense) {
  for (const auto kernel : eltwise::available_kernels()) {
    SCOPED_TRACE(eltwise::kernel_name(kernel));
    const eltwise::ForceKernelGuard guard(kernel);
    util::Rng rng(3);
    const std::int64_t batch = 2, steps = 5, hidden = 4;
    Tensor gi_all = Tensor::randn({batch, steps, 3 * hidden}, rng, 1.0F, true);
    Tensor gh = Tensor::randn({batch, 3 * hidden}, rng);
    Tensor h = Tensor::randn({batch, hidden}, rng);

    const Tensor gi_view = select(gi_all, 1, 2);  // strides {steps*3H, 1}
    ASSERT_FALSE(gi_view.is_contiguous());
    const std::uint64_t copies = detail::materializing_copies();
    const Tensor fused = eltwise::gru_cell(gi_view, gh, h);
    EXPECT_EQ(detail::materializing_copies(), copies)
        << "strided gi must be consumed without materializing";

    Tensor gi_dense = gi_view.clone().set_requires_grad(true);
    const Tensor dense = eltwise::gru_cell(gi_dense, gh, h);
    expect_bitwise_equal(fused, dense, "strided vs dense gi forward");

    sum(square(fused)).backward();
    sum(square(dense)).backward();
    // The view's gradient scattered into gi_all's base buffer: timestep 2
    // carries gi_dense's gradient, every other timestep stays zero.
    for (std::int64_t b = 0; b < batch; ++b) {
      for (std::int64_t t = 0; t < steps; ++t) {
        for (std::int64_t j = 0; j < 3 * hidden; ++j) {
          const std::size_t flat =
              static_cast<std::size_t>((b * steps + t) * 3 * hidden + j);
          const float expected =
              t == 2 ? gi_dense.grad()[static_cast<std::size_t>(
                           b * 3 * hidden + j)]
                     : 0.0F;
          ASSERT_EQ(gi_all.grad()[flat], expected)
              << "b=" << b << " t=" << t << " j=" << j;
        }
      }
    }
  }
}

// Collects forward values and all gradients of one GRUCell step driven
// either by the fused kernel or the composed gate chain.
std::vector<std::vector<float>> step_trace(bool fused) {
  util::Rng rng(4);
  const std::int64_t input = 5, hidden = 6, batch = 3;
  nn::GRUCell cell(input, hidden, rng);
  Tensor x = Tensor::randn({batch, input}, rng, 1.0F, true);
  Tensor h = Tensor::randn({batch, hidden}, rng, 1.0F, true);
  const Tensor gi = cell.precompute_inputs(x);
  const Tensor out =
      fused ? cell.step(gi, h) : reference::gru_step_composed(cell, gi, h);
  sum(square(out)).backward();
  std::vector<std::vector<float>> trace;
  trace.emplace_back(out.data().begin(), out.data().end());
  for (Tensor* t : {&x, &h}) {
    trace.emplace_back(t->grad().begin(), t->grad().end());
  }
  for (Tensor p : cell.parameters()) {
    trace.emplace_back(p.grad().begin(), p.grad().end());
  }
  return trace;
}

// Under the forced-scalar kernel, the fused cell is bit-identical to the
// composed sigmoid/tanh/mul/add chain — forward output and every gradient
// (inputs, state, and all four cell parameters).
TEST(GruCell, ForcedScalarStepMatchesComposedBitwise) {
  const eltwise::ForceKernelGuard guard(eltwise::Kernel::kScalar);
  const auto fused = step_trace(true);
  const auto composed = step_trace(false);
  ASSERT_EQ(fused.size(), composed.size());
  for (std::size_t t = 0; t < fused.size(); ++t) {
    ASSERT_EQ(fused[t].size(), composed[t].size()) << "trace " << t;
    for (std::size_t i = 0; i < fused[t].size(); ++i) {
      ASSERT_EQ(fused[t][i], composed[t][i])
          << "trace " << t << " element " << i;
    }
  }
}

// Every dispatchable kernel agrees with the scalar reference to rounding,
// forward and backward.
TEST(GruCell, KernelsAgreeToRounding) {
  const auto run = [](eltwise::Kernel kernel) {
    const eltwise::ForceKernelGuard guard(kernel);
    util::Rng rng(5);
    Tensor gi = Tensor::randn({4, 51}, rng, 1.0F, true);  // ragged H = 17
    Tensor gh = Tensor::randn({4, 51}, rng, 1.0F, true);
    Tensor h = Tensor::randn({4, 17}, rng, 1.0F, true);
    Tensor out = eltwise::gru_cell(gi, gh, h);
    sum(square(out)).backward();
    std::vector<Tensor> result{out.clone()};
    for (Tensor* t : {&gi, &gh, &h}) {
      result.push_back(Tensor::from_data(
          t->shape(), {t->grad().begin(), t->grad().end()}));
    }
    return result;
  };
  const auto reference = run(eltwise::Kernel::kScalar);
  for (const auto kernel : eltwise::available_kernels()) {
    SCOPED_TRACE(eltwise::kernel_name(kernel));
    const auto got = run(kernel);
    const char* names[] = {"forward", "dgi", "dgh", "dh"};
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_close(got[i], reference[i], 2e-4F, names[i]);
    }
  }
}

// Runs a full multi-layer GRU forward + backward; `composed` replicates
// GRU::forward's exact loop (precompute, per-timestep select) but drives
// reference::gru_step_composed instead of the fused step.
std::vector<std::vector<float>> gru_trace(bool fused) {
  util::Rng rng(6);
  const std::int64_t input = 4, hidden = 5, batch = 2, steps = 7;
  nn::GRU gru(input, hidden, 2, rng);
  Tensor x = Tensor::randn({batch, steps, input}, rng, 1.0F, true);
  // GRU does not expose its cells, so the composed run rebuilds them from an
  // identical rng stream (the GRU constructor consumes exactly the per-cell
  // draws, in order) and mirrors GRU::forward's loop with the composed step.
  util::Rng replica_rng(6);
  const nn::GRUCell cell0(input, hidden, replica_rng);
  const nn::GRUCell cell1(hidden, hidden, replica_rng);
  Tensor out;
  std::vector<Tensor> params;
  if (fused) {
    out = gru.forward(x);
    params = gru.parameters();
  } else {
    Tensor layer_input = x;
    for (const nn::GRUCell* cell : {&cell0, &cell1}) {
      const Tensor gi_flat = cell->precompute_inputs(
          reshape(layer_input, {batch * steps, layer_input.size(2)}));
      const Tensor gi_all = reshape(gi_flat, {batch, steps, 3 * hidden});
      std::vector<Tensor> outputs;
      out = Tensor::zeros({batch, hidden});
      for (std::int64_t t = 0; t < steps; ++t) {
        out = reference::gru_step_composed(*cell, select(gi_all, 1, t), out);
        outputs.push_back(reshape(out, {batch, 1, hidden}));
      }
      layer_input = concat(outputs, 1);
      for (const Tensor& p : cell->parameters()) params.push_back(p);
    }
  }
  sum(square(out)).backward();
  std::vector<std::vector<float>> trace;
  trace.emplace_back(out.data().begin(), out.data().end());
  trace.emplace_back(x.grad().begin(), x.grad().end());
  for (Tensor p : params) {
    trace.emplace_back(p.grad().begin(), p.grad().end());
  }
  return trace;
}

// End-to-end: the fused multi-layer GRU (strided-view gi slices feeding the
// fused cell) reproduces the composed-chain recurrence bit-for-bit under the
// forced-scalar kernel — forward state, input gradient, and every parameter
// gradient of both layers.
TEST(GruCell, ForcedScalarGruForwardBackwardMatchesComposed) {
  const eltwise::ForceKernelGuard guard(eltwise::Kernel::kScalar);
  const auto fused = gru_trace(true);
  const auto composed = gru_trace(false);
  ASSERT_EQ(fused.size(), composed.size());
  for (std::size_t t = 0; t < fused.size(); ++t) {
    ASSERT_EQ(fused[t].size(), composed[t].size()) << "trace " << t;
    for (std::size_t i = 0; i < fused[t].size(); ++i) {
      ASSERT_EQ(fused[t][i], composed[t][i])
          << "trace " << t << " element " << i;
    }
  }
}

TEST(GruCell, GruGradcheck) {
  util::Rng rng(7);
  nn::GRU gru(3, 4, 1, rng);
  Tensor x = Tensor::randn({2, 5, 3}, rng);
  std::vector<Tensor> inputs{x};
  for (const Tensor& p : gru.parameters()) inputs.push_back(p);
  check_gradients([&] { return sum(square(gru.forward(x))); }, inputs);
}

// Classifier end-to-end determinism: repeated fwd+bwd of the GRU classifier
// produce bit-identical logits, loss, and gradients (the recurrence has no
// run-to-run nondeterminism for a fixed kernel).
TEST(GruCell, ClassifierForwardBackwardDeterministic) {
  const auto run = [] {
    models::ClassifierConfig config;
    config.input_dim = 8;
    config.gru_hidden = 6;
    models::GruClassifier classifier(config);
    util::Rng rng(8);
    Tensor h = Tensor::randn({3, 10, 8}, rng);
    const Tensor logits = classifier.forward(h);
    Tensor loss = cross_entropy(logits, {0, 3, 5});
    loss.backward();
    std::vector<std::vector<float>> trace;
    trace.emplace_back(logits.data().begin(), logits.data().end());
    trace.push_back({loss.item()});
    for (Tensor p : classifier.parameters()) {
      trace.emplace_back(p.grad().begin(), p.grad().end());
    }
    return trace;
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t t = 0; t < first.size(); ++t) {
    ASSERT_EQ(first[t], second[t]) << "trace " << t;
  }
}

// The recurrent hot loop under NoGrad: zero tape nodes AND zero
// materializing copies — every per-timestep select(gi_all, 1, t) feeds the
// fused cell as a strided view.
TEST(GruCell, NoGradGruForwardZeroNodesZeroCopies) {
  util::Rng rng(9);
  nn::GRU gru(6, 8, 2, rng);
  const Tensor x = Tensor::randn({2, 12, 6}, rng);
  NoGradGuard no_grad;
  (void)gru.forward(x);  // warm-up
  const std::uint64_t nodes = detail::autograd_nodes_created();
  const std::uint64_t copies = detail::materializing_copies();
  const Tensor out = gru.forward(x);
  EXPECT_EQ(detail::autograd_nodes_created(), nodes);
  EXPECT_EQ(detail::materializing_copies(), copies);
  EXPECT_EQ(out.shape(), (Shape{2, 8}));
}

}  // namespace
