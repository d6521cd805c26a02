// Integration tests: end-to-end behaviour of the training stack and the
// public pipeline on micro-scale configurations. These are the slowest tests
// in the suite (a few seconds each); they use tiny windows/models so the
// whole suite stays fast.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "train/finetune.hpp"
#include "train/pretrain.hpp"
#include "util/serialize.hpp"

namespace saga {
namespace {

data::Dataset micro_dataset(std::int64_t n = 90) {
  data::SyntheticSpec spec = data::hhar_like(n);
  spec.window_length = 40;
  spec.num_users = 4;
  return data::generate_dataset(spec);
}

core::PipelineConfig micro_config() {
  core::PipelineConfig config;
  config.backbone.hidden_dim = 16;
  config.backbone.num_blocks = 1;
  config.backbone.num_heads = 2;
  config.backbone.ff_dim = 32;
  config.backbone.dropout = 0.0;
  config.classifier.gru_hidden = 12;
  config.pretrain.epochs = 3;
  config.finetune.epochs = 6;
  config.clhar.epochs = 3;
  config.tpn.epochs = 3;
  config.lws.budget = 1;
  config.lws.initial_random = 2;
  config.lws_epoch_fraction = 0.5;
  config.seed = 21;
  return config;
}

TEST(PretrainIntegration, ReconstructionLossDecreases) {
  const auto dataset = micro_dataset();
  models::BackboneConfig bc;
  bc.input_channels = dataset.channels;
  bc.max_seq_len = dataset.window_length;
  bc.hidden_dim = 16;
  bc.num_blocks = 1;
  bc.num_heads = 2;
  bc.ff_dim = 32;
  models::LimuBertBackbone backbone(bc);
  models::ReconstructionHead head(16, dataset.channels, 5);

  std::vector<std::int64_t> indices;
  for (std::int64_t i = 0; i < dataset.size(); ++i) indices.push_back(i);
  train::PretrainConfig config;
  config.epochs = 8;
  const auto stats = train::pretrain_backbone(backbone, head, dataset, indices, config);
  ASSERT_EQ(stats.epoch_losses.size(), 8U);
  EXPECT_LT(stats.epoch_losses.back(), 0.8 * stats.epoch_losses.front());
  for (const double level_loss : stats.last_level_losses) EXPECT_GT(level_loss, 0.0);
}

TEST(PretrainIntegration, SingleLevelSkipsOthers) {
  const auto dataset = micro_dataset(40);
  models::BackboneConfig bc;
  bc.input_channels = dataset.channels;
  bc.max_seq_len = dataset.window_length;
  bc.hidden_dim = 8;
  bc.num_blocks = 1;
  bc.num_heads = 2;
  bc.ff_dim = 16;
  models::LimuBertBackbone backbone(bc);
  models::ReconstructionHead head(8, dataset.channels, 5);

  std::vector<std::int64_t> indices;
  for (std::int64_t i = 0; i < dataset.size(); ++i) indices.push_back(i);
  train::PretrainConfig config;
  config.epochs = 2;
  config.weights = {0.0, 1.0, 0.0, 0.0};  // LIMU: point level only
  const auto stats = train::pretrain_backbone(backbone, head, dataset, indices, config);
  EXPECT_GT(stats.last_level_losses[1], 0.0);
  EXPECT_EQ(stats.last_level_losses[0], 0.0);
  EXPECT_EQ(stats.last_level_losses[2], 0.0);
  EXPECT_EQ(stats.last_level_losses[3], 0.0);
}

TEST(PretrainIntegration, AllZeroWeightsThrow) {
  const auto dataset = micro_dataset(40);
  models::BackboneConfig bc;
  bc.input_channels = dataset.channels;
  bc.max_seq_len = dataset.window_length;
  bc.hidden_dim = 8;
  bc.num_blocks = 1;
  bc.num_heads = 2;
  bc.ff_dim = 16;
  models::LimuBertBackbone backbone(bc);
  models::ReconstructionHead head(8, dataset.channels, 5);
  train::PretrainConfig config;
  config.weights = {0.0, 0.0, 0.0, 0.0};
  std::vector<std::int64_t> indices{0, 1, 2, 3};
  EXPECT_THROW(train::pretrain_backbone(backbone, head, dataset, indices, config),
               std::invalid_argument);
}

TEST(FinetuneIntegration, FitsSmallLabelledSet) {
  const auto dataset = micro_dataset();
  models::BackboneConfig bc;
  bc.input_channels = dataset.channels;
  bc.max_seq_len = dataset.window_length;
  bc.hidden_dim = 16;
  bc.num_blocks = 1;
  bc.num_heads = 2;
  bc.ff_dim = 32;
  bc.dropout = 0.0;
  models::LimuBertBackbone backbone(bc);
  models::ClassifierConfig cc;
  cc.input_dim = 16;
  cc.gru_hidden = 12;
  cc.num_classes = dataset.num_classes(data::Task::kActivityRecognition);
  models::GruClassifier classifier(cc);

  std::vector<std::int64_t> train_indices;
  for (std::int64_t i = 0; i < 40; ++i) train_indices.push_back(i);
  train::FinetuneConfig config;
  config.epochs = 25;
  const auto stats = train::finetune_classifier(
      backbone, classifier, dataset, train_indices, data::Task::kActivityRecognition,
      config);
  EXPECT_LT(stats.epoch_losses.back(), stats.epoch_losses.front());

  // Training accuracy should be far above the ~1/6 chance level.
  const auto metrics = train::evaluate(backbone, classifier, dataset, train_indices,
                                       data::Task::kActivityRecognition);
  EXPECT_GT(metrics.accuracy, 0.5);
}

TEST(FinetuneIntegration, EvaluateIsDeterministic) {
  const auto dataset = micro_dataset(60);
  models::BackboneConfig bc;
  bc.input_channels = dataset.channels;
  bc.max_seq_len = dataset.window_length;
  bc.hidden_dim = 8;
  bc.num_blocks = 1;
  bc.num_heads = 2;
  bc.ff_dim = 16;
  models::LimuBertBackbone backbone(bc);
  models::ClassifierConfig cc;
  cc.input_dim = 8;
  cc.gru_hidden = 8;
  cc.num_classes = dataset.num_classes(data::Task::kUserAuthentication);
  models::GruClassifier classifier(cc);

  std::vector<std::int64_t> indices;
  for (std::int64_t i = 0; i < dataset.size(); ++i) indices.push_back(i);
  const auto a = train::evaluate(backbone, classifier, dataset, indices,
                                 data::Task::kUserAuthentication);
  const auto b = train::evaluate(backbone, classifier, dataset, indices,
                                 data::Task::kUserAuthentication);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.macro_f1, b.macro_f1);
}

TEST(CheckpointIntegration, StateDictSurvivesDiskRoundTrip) {
  models::BackboneConfig bc;
  bc.input_channels = 6;
  bc.max_seq_len = 20;
  bc.hidden_dim = 8;
  bc.num_blocks = 1;
  bc.num_heads = 2;
  bc.ff_dim = 16;
  bc.seed = 9;
  models::LimuBertBackbone original(bc);
  const std::string path =
      std::filesystem::temp_directory_path() / "saga_backbone.ckpt";
  util::save_blobs(path, original.state_dict());

  bc.seed = 10;  // different init
  models::LimuBertBackbone restored(bc);
  restored.load_state_dict(util::load_manifest(path).blobs);
  std::filesystem::remove(path);

  original.set_training(false);
  restored.set_training(false);
  util::Rng rng(4);
  Tensor x = Tensor::randn({2, 20, 6}, rng);
  Tensor ya = original.encode(x);
  Tensor yb = restored.encode(x);
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya.at(i), yb.at(i));
}

TEST(PipelineIntegration, MethodNamesAreUnique) {
  std::set<std::string> names;
  for (const auto method : core::kFig6Methods) {
    EXPECT_TRUE(names.insert(core::method_name(method)).second);
  }
  for (const auto method : core::kFig12Methods) {
    names.insert(core::method_name(method));
  }
  // Fig. 6 contributes {Saga, LIMU, CL-HAR, TPN, NoPre.}; Fig. 12 adds the
  // five masking ablations (Saga itself overlaps).
  EXPECT_EQ(names.size(), 10U);
}

TEST(PipelineIntegration, RunsEveryMethodOnMicroDataset) {
  const auto dataset = micro_dataset(80);
  core::Pipeline pipeline(dataset, data::Task::kActivityRecognition, micro_config());
  for (const auto method :
       {core::Method::kNoPretrain, core::Method::kLimu, core::Method::kClHar,
        core::Method::kTpn, core::Method::kSagaRandom}) {
    const auto result = pipeline.run(method, 0.3);
    EXPECT_GE(result.test.accuracy, 0.0) << core::method_name(method);
    EXPECT_LE(result.test.accuracy, 1.0);
    EXPECT_GT(result.labelled_samples, 0);
    EXPECT_GT(result.test.num_samples, 0);
  }
}

TEST(PipelineIntegration, SagaRunsLwsAndReportsTrials) {
  const auto dataset = micro_dataset(80);
  core::Pipeline pipeline(dataset, data::Task::kActivityRecognition, micro_config());
  const auto result = pipeline.run(core::Method::kSaga, 0.3);
  EXPECT_EQ(result.lws_trials, 3);  // 2 random + 1 BO with micro_config budgets
  double weight_sum = 0.0;
  for (const double w : result.weights) weight_sum += w;
  EXPECT_NEAR(weight_sum, 1.0, 1e-6);
}

TEST(PipelineIntegration, DeterministicForSameSeed) {
  const auto dataset = micro_dataset(80);
  core::Pipeline a(dataset, data::Task::kActivityRecognition, micro_config());
  core::Pipeline b(dataset, data::Task::kActivityRecognition, micro_config());
  const auto ra = a.run(core::Method::kLimu, 0.3);
  const auto rb = b.run(core::Method::kLimu, 0.3);
  EXPECT_EQ(ra.test.accuracy, rb.test.accuracy);
  EXPECT_EQ(ra.validation.accuracy, rb.validation.accuracy);
}

TEST(PipelineIntegration, PerClassBudget) {
  const auto dataset = micro_dataset(80);
  core::Pipeline pipeline(dataset, data::Task::kActivityRecognition, micro_config());
  const auto result = pipeline.run_per_class(core::Method::kNoPretrain, 2);
  EXPECT_LE(result.labelled_samples,
            2 * dataset.num_classes(data::Task::kActivityRecognition));
}

}  // namespace
}  // namespace saga
