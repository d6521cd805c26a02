#include "core/pipeline.hpp"

#include <stdexcept>

#include "util/logging.hpp"
#include "util/rng.hpp"

namespace saga::core {

std::string method_name(Method method) {
  switch (method) {
    case Method::kSaga: return "Saga";
    case Method::kSagaRandom: return "Saga(ran.)";
    case Method::kSagaSensorOnly: return "Saga(se.)";
    case Method::kSagaPointOnly: return "Saga(po.)";
    case Method::kSagaSubPeriodOnly: return "Saga(sp.)";
    case Method::kSagaPeriodOnly: return "Saga(pe.)";
    case Method::kLimu: return "LIMU";
    case Method::kClHar: return "CL-HAR";
    case Method::kTpn: return "TPN";
    case Method::kNoPretrain: return "NoPre.";
  }
  return "?";
}

namespace {

std::optional<train::TaskWeights> fixed_weights_for(Method method,
                                                    std::uint64_t seed) {
  switch (method) {
    case Method::kSagaSensorOnly: return train::TaskWeights{1, 0, 0, 0};
    case Method::kSagaPointOnly: return train::TaskWeights{0, 1, 0, 0};
    case Method::kSagaSubPeriodOnly: return train::TaskWeights{0, 0, 1, 0};
    case Method::kSagaPeriodOnly: return train::TaskWeights{0, 0, 0, 1};
    case Method::kLimu: return train::TaskWeights{0, 1, 0, 0};
    case Method::kSagaRandom: {
      const auto w = bo::sample_simplex_weights(seed);
      return train::TaskWeights{w[0], w[1], w[2], w[3]};
    }
    default: return std::nullopt;
  }
}

}  // namespace

PipelineConfig paper_profile() {
  PipelineConfig config;  // defaults already follow §VII-A1
  config.pretrain.epochs = 50;
  config.finetune.epochs = 50;
  config.lws.budget = 8;
  config.lws.initial_random = 3;
  return config;
}

PipelineConfig fast_profile() {
  PipelineConfig config;
  config.backbone.hidden_dim = 48;
  config.backbone.num_blocks = 2;
  config.backbone.num_heads = 4;
  config.backbone.ff_dim = 96;
  config.classifier.gru_hidden = 32;
  config.pretrain.epochs = 8;
  config.finetune.epochs = 20;
  config.finetune.backbone_lr_scale = 0.3;
  config.clhar.epochs = 8;
  config.tpn.epochs = 8;
  config.lws.budget = 2;
  config.lws.initial_random = 2;
  config.lws_epoch_fraction = 0.4;
  return config;
}

Pipeline::Pipeline(const data::Dataset& dataset, data::Task task,
                   PipelineConfig config)
    : dataset_(&dataset), task_(task), config_(std::move(config)) {
  config_.backbone.input_channels = dataset.channels;
  config_.backbone.max_seq_len = dataset.window_length;
  config_.classifier.input_dim = config_.backbone.hidden_dim;
  config_.classifier.num_classes = dataset.num_classes(task);
  split_ = data::split_dataset(dataset, config_.train_fraction,
                               config_.validation_fraction, config_.seed);
}

RunResult Pipeline::run(Method method, double labelling_rate) {
  util::SeedSplitter seeds(config_.seed ^ (static_cast<std::uint64_t>(method) << 32U));
  const auto labelled = data::subsample_labelled(*dataset_, split_.train, task_,
                                                 labelling_rate, seeds.next());
  return run_with_labelled(method, labelled, seeds.next());
}

RunResult Pipeline::run_per_class(Method method, std::int64_t per_class) {
  util::SeedSplitter seeds(config_.seed ^ (static_cast<std::uint64_t>(method) << 32U) ^
                           0x9C);
  const auto labelled = data::subsample_per_class(*dataset_, split_.train, task_,
                                                  per_class, seeds.next());
  return run_with_labelled(method, labelled, seeds.next());
}

RunResult Pipeline::run_with_labelled(Method method,
                                      const std::vector<std::int64_t>& labelled,
                                      std::uint64_t run_seed) {
  util::SeedSplitter seeds(run_seed);
  RunResult result;
  result.method = method;
  result.labelled_samples = static_cast<std::int64_t>(labelled.size());

  // Snapshot a trained pair for trained()/serve export; the last capture of
  // a run wins, which for Saga/LWS is the final full-budget cycle.
  auto capture_trained = [&](const models::LimuBertBackbone& backbone,
                             const models::GruClassifier& classifier) {
    trained_ = TrainedModels{backbone.config(), classifier.config(),
                             backbone.state_dict(), classifier.state_dict()};
  };

  // Fresh models per run so methods never share initialization history.
  auto make_models = [&](std::uint64_t model_seed) {
    models::BackboneConfig backbone_config = config_.backbone;
    backbone_config.seed = model_seed;
    models::ClassifierConfig classifier_config = config_.classifier;
    classifier_config.seed = model_seed ^ 0xC1A55;
    return std::pair{models::LimuBertBackbone(backbone_config),
                     models::GruClassifier(classifier_config)};
  };
  const std::uint64_t model_seed = seeds.next();
  const std::uint64_t pretrain_seed = seeds.next();
  const std::uint64_t finetune_seed = seeds.next();
  const std::uint64_t lws_seed = seeds.next();

  // One full pretrain+finetune+validate cycle with given mask weights.
  // `capture` snapshots the trained pair (skipped for throwaway LWS trials).
  auto masked_cycle = [&](const train::TaskWeights& weights, double epoch_scale,
                          std::uint64_t cycle_seed, RunResult& out,
                          bool capture = true) {
    auto [backbone, classifier] = make_models(model_seed ^ cycle_seed);

    train::PretrainConfig pretrain_config = config_.pretrain;
    pretrain_config.weights = weights;
    pretrain_config.epochs = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(static_cast<double>(config_.pretrain.epochs) *
                                     epoch_scale));
    pretrain_config.seed = pretrain_seed ^ cycle_seed;
    models::ReconstructionHead head(config_.backbone.hidden_dim,
                                    config_.backbone.input_channels,
                                    pretrain_config.seed ^ 0x8EAD);
    const auto pretrain_stats = train::pretrain_backbone(
        backbone, head, *dataset_, split_.train, pretrain_config);

    train::FinetuneConfig finetune_config = config_.finetune;
    finetune_config.epochs = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(static_cast<double>(config_.finetune.epochs) *
                                     epoch_scale));
    finetune_config.seed = finetune_seed ^ cycle_seed;
    const auto finetune_stats = train::finetune_classifier(
        backbone, classifier, *dataset_, labelled, task_, finetune_config);

    out.validation = train::evaluate(backbone, classifier, *dataset_,
                                     split_.validation, task_);
    out.test = train::evaluate(backbone, classifier, *dataset_, split_.test, task_);
    out.weights = weights;
    out.pretrain_seconds += pretrain_stats.wall_seconds;
    out.finetune_seconds += finetune_stats.wall_seconds;
    if (capture) capture_trained(backbone, classifier);
  };

  if (method == Method::kSaga) {
    // LWS (§VI): cheap inner trials, then a full-budget final cycle with the
    // best weights.
    bo::LwsConfig lws_config = config_.lws;
    lws_config.seed = lws_seed;
    std::uint64_t trial_counter = 0;
    const auto lws_result = bo::search_weights(
        [&](const bo::TaskWeights& w) {
          RunResult trial;
          const train::TaskWeights weights{w[0], w[1], w[2], w[3]};
          masked_cycle(weights, config_.lws_epoch_fraction, ++trial_counter, trial,
                       /*capture=*/false);
          result.pretrain_seconds += trial.pretrain_seconds;
          result.finetune_seconds += trial.finetune_seconds;
          return trial.validation.accuracy;
        },
        lws_config);
    result.lws_trials = static_cast<std::int64_t>(lws_result.history.size());
    const train::TaskWeights best{lws_result.best_weights[0],
                                  lws_result.best_weights[1],
                                  lws_result.best_weights[2],
                                  lws_result.best_weights[3]};
    masked_cycle(best, 1.0, 0, result);
    return result;
  }

  if (const auto weights = fixed_weights_for(method, lws_seed)) {
    masked_cycle(*weights, 1.0, 0, result);
    return result;
  }

  // Non-masking methods.
  auto [backbone, classifier] = make_models(model_seed);
  if (method == Method::kClHar) {
    baselines::ClHarConfig clhar_config = config_.clhar;
    clhar_config.seed = pretrain_seed;
    const auto stats =
        baselines::pretrain_clhar(backbone, *dataset_, split_.train, clhar_config);
    result.pretrain_seconds = stats.wall_seconds;
  } else if (method == Method::kTpn) {
    baselines::TpnConfig tpn_config = config_.tpn;
    tpn_config.seed = pretrain_seed;
    const auto stats =
        baselines::pretrain_tpn(backbone, *dataset_, split_.train, tpn_config);
    result.pretrain_seconds = stats.wall_seconds;
  } else if (method != Method::kNoPretrain) {
    throw std::logic_error("pipeline: unhandled method");
  }

  train::FinetuneConfig finetune_config = config_.finetune;
  finetune_config.seed = finetune_seed;
  const auto finetune_stats = train::finetune_classifier(
      backbone, classifier, *dataset_, labelled, task_, finetune_config);
  result.finetune_seconds = finetune_stats.wall_seconds;
  result.validation =
      train::evaluate(backbone, classifier, *dataset_, split_.validation, task_);
  result.test = train::evaluate(backbone, classifier, *dataset_, split_.test, task_);
  capture_trained(backbone, classifier);
  return result;
}

const TrainedModels& Pipeline::trained() const {
  if (!trained_) {
    throw std::runtime_error(
        "Pipeline::trained: no models trained yet — call run() first");
  }
  return *trained_;
}

}  // namespace saga::core
