#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.hpp"
#include "models/backbone.hpp"
#include "models/classifier.hpp"
#include "nn/gru.hpp"
#include "nn/layers.hpp"
#include "nn/linear.hpp"
#include "nn/optimizer.hpp"
#include "nn/transformer.hpp"
#include "quant/qlinear.hpp"
#include "quant/quant.hpp"
#include "tensor/grad_mode.hpp"
#include "tensor/loss.hpp"
#include "tensor/reduce.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace saga::nn {
namespace {

TEST(Linear, ShapesAndBias) {
  util::Rng rng(1);
  Linear layer(4, 3, rng);
  Tensor x2 = Tensor::randn({5, 4}, rng);
  EXPECT_EQ(layer.forward(x2).shape(), (Shape{5, 3}));
  Tensor x3 = Tensor::randn({2, 6, 4}, rng);
  EXPECT_EQ(layer.forward(x3).shape(), (Shape{2, 6, 3}));
  EXPECT_THROW(layer.forward(Tensor::zeros({5, 5})), std::invalid_argument);
  EXPECT_THROW(layer.forward(Tensor::zeros({5})), std::invalid_argument);
}

// The feature count is checked before the 3-D flatten, by forward and by
// forward_chain, fp32 and on the fused int8 chain: a [2, 3, 6] input must
// not run as [9, 4] rows, nor a [2, 3, 5] one fail inside reshape.
TEST(Linear, RejectsWrongFeatureCountBeforeFlattening) {
  util::Rng rng(3);
  Linear first(4, 8, rng);
  Linear second(8, 2, rng);
  const auto check = [&] {
    for (const Shape& shape : {Shape{2, 3, 6}, Shape{2, 3, 5}, Shape{5, 6}}) {
      const Tensor x = Tensor::zeros(shape);
      for (const bool chain : {false, true}) {
        try {
          (void)(chain ? first.forward_chain(x, Activation::kGelu, second)
                       : first.forward(x));
          ADD_FAILURE() << "no throw, chain=" << chain;
        } catch (const std::invalid_argument& e) {
          EXPECT_EQ(std::string(e.what()), "Linear: expected 4 features, got " +
                                               std::to_string(shape.back()));
        }
      }
    }
  };
  check();
  // Both layers int8 with gradients off: forward_chain takes the fused path.
  for (Linear* layer : {&first, &second}) {
    quant::QuantBlob blob = quant::quantize_weights(
        layer->weight().data().data(), layer->in_features(),
        layer->out_features());
    blob.act_scale = quant::activation_scale(1.0F);
    layer->set_quantized(
        std::make_shared<const quant::LinearQuant>(quant::prepare(blob)));
  }
  NoGradGuard no_grad;
  check();
}

TEST(Linear, NoBiasVariant) {
  util::Rng rng(2);
  Linear layer(3, 2, rng, /*with_bias=*/false);
  EXPECT_EQ(layer.parameters().size(), 1U);
  Tensor zero_out = layer.forward(Tensor::zeros({1, 3}));
  EXPECT_EQ(zero_out.at(0), 0.0F);
  EXPECT_EQ(zero_out.at(1), 0.0F);
}

TEST(Linear, ParameterCount) {
  util::Rng rng(3);
  Linear layer(10, 7, rng);
  EXPECT_EQ(layer.num_parameters(), 10 * 7 + 7);
}

TEST(Module, StateDictRoundTrip) {
  util::Rng rng(4);
  Linear a(3, 3, rng);
  Linear b(3, 3, rng);
  const auto dict = a.state_dict();
  b.load_state_dict(dict);
  Tensor x = Tensor::randn({2, 3}, rng);
  Tensor ya = a.forward(x);
  Tensor yb = b.forward(x);
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya.at(i), yb.at(i));
}

TEST(Module, StateDictPrefixNamespacesKeys) {
  util::Rng rng(14);
  Linear a(3, 2, rng);
  const auto plain = a.state_dict();
  const auto spaced = a.state_dict("classifier");
  ASSERT_EQ(spaced.size(), plain.size());
  for (const auto& [key, values] : plain) {
    const auto it = spaced.find("classifier." + key);
    ASSERT_NE(it, spaced.end());
    EXPECT_EQ(it->second, values);
  }
  // Trailing dot is optional and equivalent.
  EXPECT_EQ(a.state_dict("classifier."), spaced);

  // Two modules can share one checkpoint under distinct namespaces; keys
  // outside a module's prefix are ignored at load time.
  Linear b(3, 2, rng);
  Linear c(3, 2, rng);
  auto shared = a.state_dict("backbone");
  shared.merge(b.state_dict("classifier"));
  c.load_state_dict(shared, "classifier");
  Tensor x = Tensor::randn({2, 3}, rng);
  const Tensor yb = b.forward(x);
  const Tensor yc = c.forward(x);
  for (std::int64_t i = 0; i < yb.numel(); ++i) EXPECT_EQ(yb.at(i), yc.at(i));
  EXPECT_THROW(c.load_state_dict(shared, "missing_prefix"), std::runtime_error);
}

TEST(Module, LoadRejectsMissingKeys) {
  util::Rng rng(5);
  Linear layer(2, 2, rng);
  EXPECT_THROW(layer.load_state_dict({}), std::runtime_error);
}

TEST(Module, TrainingFlagPropagates) {
  util::Rng rng(6);
  TransformerConfig config;
  config.dim = 8;
  config.num_heads = 2;
  config.ff_dim = 16;
  TransformerBlock block(config, rng, 9);
  block.set_training(false);
  EXPECT_FALSE(block.training());
}

TEST(LayerNormModule, NormalizesAndLearnsScale) {
  LayerNorm norm(4);
  util::Rng rng(7);
  Tensor x = Tensor::randn({3, 4}, rng, 5.0F);
  Tensor y = norm.forward(x);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_EQ(norm.parameters().size(), 2U);
}

TEST(DropoutModule, EvalModePassesThrough) {
  Dropout drop(0.9, 1);
  drop.set_training(false);
  Tensor x = Tensor::ones({50});
  Tensor y = drop.forward(x);
  for (const float v : y.data()) EXPECT_EQ(v, 1.0F);
}

TEST(GRUCell, StepShapesAndRange) {
  util::Rng rng(8);
  GRUCell cell(3, 5, rng);
  Tensor x = Tensor::randn({4, 3}, rng);
  Tensor h = Tensor::zeros({4, 5});
  Tensor h2 = cell.forward(x, h);
  EXPECT_EQ(h2.shape(), (Shape{4, 5}));
  // GRU state is a convex-ish combination of tanh outputs: bounded by 1.
  for (const float v : h2.data()) EXPECT_LE(std::abs(v), 1.0F);
}

TEST(GRU, FinalStateShape) {
  util::Rng rng(9);
  GRU gru(6, 4, 2, rng);
  Tensor x = Tensor::randn({3, 10, 6}, rng);
  EXPECT_EQ(gru.forward(x).shape(), (Shape{3, 4}));
}

TEST(GRU, SequenceOrderMatters) {
  util::Rng rng(10);
  GRU gru(2, 4, 1, rng);
  Tensor x = Tensor::randn({1, 6, 2}, rng);
  // reversed copy
  std::vector<float> rev(x.data().begin(), x.data().end());
  for (std::int64_t t = 0; t < 3; ++t) {
    for (std::int64_t c = 0; c < 2; ++c) {
      std::swap(rev[t * 2 + c], rev[(5 - t) * 2 + c]);
    }
  }
  Tensor xr = Tensor::from_data({1, 6, 2}, std::move(rev));
  Tensor hf = gru.forward(x);
  Tensor hr = gru.forward(xr);
  double diff = 0.0;
  for (std::int64_t i = 0; i < hf.numel(); ++i) diff += std::abs(hf.at(i) - hr.at(i));
  EXPECT_GT(diff, 1e-4);
}

TEST(GRU, GradFlowsToInput) {
  util::Rng rng(11);
  GRU gru(2, 3, 1, rng);
  Tensor x = Tensor::randn({2, 4, 2}, rng);
  saga::testing::check_gradients([&]() { return sum(square(gru.forward(x))); },
                                 {x});
}

TEST(Optimizers, SgdConvergesOnQuadratic) {
  Tensor w = Tensor::from_data({1}, {5.0F}, true);
  SGD sgd({w}, 0.1);
  for (int i = 0; i < 100; ++i) {
    sgd.zero_grad();
    Tensor loss = square(w);
    loss.backward();
    sgd.step();
  }
  EXPECT_NEAR(w.at(0), 0.0F, 1e-3F);
}

TEST(Optimizers, AdamConvergesOnQuadratic) {
  Tensor w = Tensor::from_data({2}, {3.0F, -4.0F}, true);
  Adam::Options options;
  options.lr = 0.1;
  Adam adam({w}, options);
  for (int i = 0; i < 300; ++i) {
    adam.zero_grad();
    Tensor loss = sum(square(w));
    loss.backward();
    adam.step();
  }
  EXPECT_NEAR(w.at(0), 0.0F, 1e-2F);
  EXPECT_NEAR(w.at(1), 0.0F, 1e-2F);
}

TEST(Optimizers, ClipGradNormScalesDown) {
  Tensor w = Tensor::from_data({2}, {1.0F, 1.0F}, true);
  Tensor loss = scale(sum(mul(w, Tensor::from_data({2}, {30.0F, 40.0F}))), 1.0F);
  loss.backward();
  SGD sgd({w}, 0.1);
  const double norm = sgd.clip_grad_norm(5.0);
  EXPECT_NEAR(norm, 50.0, 1e-3);
  double clipped = 0.0;
  for (const float g : w.grad()) clipped += double(g) * g;
  EXPECT_NEAR(std::sqrt(clipped), 5.0, 1e-3);
}

TEST(Optimizers, LinearRegressionLearns) {
  // y = 2x - 1 with a single Linear layer.
  util::Rng rng(12);
  Linear layer(1, 1, rng);
  Adam::Options options;
  options.lr = 0.05;
  Adam adam(layer.parameters(), options);
  for (int step = 0; step < 400; ++step) {
    std::vector<float> xs(16), ys(16);
    for (int i = 0; i < 16; ++i) {
      xs[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      ys[i] = 2.0F * xs[i] - 1.0F;
    }
    Tensor x = Tensor::from_data({16, 1}, std::move(xs));
    Tensor y = Tensor::from_data({16, 1}, std::move(ys));
    adam.zero_grad();
    Tensor loss = mse(layer.forward(x), y);
    loss.backward();
    adam.step();
  }
  Tensor probe = layer.forward(Tensor::from_data({1, 1}, {0.5F}));
  EXPECT_NEAR(probe.at(0), 0.0F, 0.05F);
}

TEST(Backbone, EncodeShapeAndLimits) {
  saga::models::BackboneConfig config;
  config.input_channels = 6;
  config.max_seq_len = 20;
  config.hidden_dim = 16;
  config.num_blocks = 2;
  config.num_heads = 2;
  config.ff_dim = 32;
  saga::models::LimuBertBackbone backbone(config);
  util::Rng rng(13);
  Tensor x = Tensor::randn({3, 20, 6}, rng);
  EXPECT_EQ(backbone.encode(x).shape(), (Shape{3, 20, 16}));
  EXPECT_THROW(backbone.encode(Tensor::zeros({3, 21, 6})), std::invalid_argument);
  EXPECT_THROW(backbone.encode(Tensor::zeros({3, 20, 5})), std::invalid_argument);
}

TEST(Backbone, DeterministicForSameSeed) {
  saga::models::BackboneConfig config;
  config.input_channels = 6;
  config.max_seq_len = 10;
  config.hidden_dim = 8;
  config.num_blocks = 1;
  config.num_heads = 2;
  config.ff_dim = 16;
  config.seed = 77;
  saga::models::LimuBertBackbone a(config);
  saga::models::LimuBertBackbone b(config);
  a.set_training(false);
  b.set_training(false);
  util::Rng rng(14);
  Tensor x = Tensor::randn({2, 10, 6}, rng);
  Tensor ya = a.encode(x);
  Tensor yb = b.encode(x);
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya.at(i), yb.at(i));
}

TEST(Classifier, LogitsShape) {
  saga::models::ClassifierConfig config;
  config.input_dim = 16;
  config.gru_hidden = 8;
  config.num_classes = 5;
  saga::models::GruClassifier classifier(config);
  util::Rng rng(15);
  Tensor h = Tensor::randn({4, 12, 16}, rng);
  EXPECT_EQ(classifier.forward(h).shape(), (Shape{4, 5}));
}

TEST(ReconstructionHead, MapsBackToChannels) {
  saga::models::ReconstructionHead head(16, 6, 3);
  util::Rng rng(16);
  Tensor h = Tensor::randn({2, 10, 16}, rng);
  EXPECT_EQ(head.forward(h).shape(), (Shape{2, 10, 6}));
}

TEST(Backbone, ParameterCountMatchesPaperOrder) {
  // Paper Table IV reports ~61 KB of parameters for the LIMU/Saga model
  // (hidden 72, 4 blocks). Our faithful config should be the same order of
  // magnitude (tens of thousands of floats).
  saga::models::BackboneConfig config;  // defaults = paper config
  saga::models::LimuBertBackbone backbone(config);
  const std::int64_t params = backbone.num_parameters();
  EXPECT_GT(params, 30000);
  EXPECT_LT(params, 300000);
}

}  // namespace
}  // namespace saga::nn
