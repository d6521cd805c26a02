// saga::core::Pipeline — the paper's end-to-end system (Fig. 2) behind one
// public API. A pipeline owns a dataset + task, builds fresh models per run,
// and executes any of the candidate methods the paper evaluates:
//
//   Saga           multi-level masking, weights searched by LWS (§VI)
//   Saga(ran.)     multi-level masking, random simplex weights
//   Saga(se./po./sp./pe.)  single-level ablations (§VII-C)
//   LIMU           point-level masking only (the SOTA baseline)
//   CL-HAR         SimCLR-style contrastive pre-training
//   TPN            transformation-prediction pre-training
//   No-Pretrain    classifier trained from scratch on the labelled subset
//
// Every run is deterministic in (config.seed, method, labelling rate).
//
// Stage contract (what each phase consumes and produces):
//   split      consumes the Dataset; produces a seeded 6:2:2 Split once, in
//              the constructor — every method sees identical splits.
//   pretrain   consumes the UNLABELLED train split ([B, T, C] windows);
//              produces a trained backbone (labels are never read).
//   lws        consumes a cheap evaluate() closure (fractional-budget
//              pretrain + finetune); produces the 4-dim TaskWeights used by
//              the final Saga pre-training run.
//   finetune   consumes the labelled subset of the train split; produces a
//              trained backbone+classifier pair.
//   evaluate   consumes validation/test indices; produces train::Metrics
//              (accuracy, macro-F1) reported in RunResult.
//
// Threading: Pipeline itself is single-threaded; parallelism happens inside
// tensor ops via util::parallel_for on the process-wide util::ThreadPool
// (see util/thread_pool.hpp). Results are independent of pool size because
// batch work derives per-sample seeds. A Pipeline is not safe to share
// across threads concurrently; distinct Pipeline instances are independent.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "baselines/clhar.hpp"
#include "baselines/tpn.hpp"
#include "bo/lws.hpp"
#include "data/dataset.hpp"
#include "models/backbone.hpp"
#include "models/classifier.hpp"
#include "train/finetune.hpp"
#include "train/pretrain.hpp"

namespace saga::core {

enum class Method {
  kSaga,
  kSagaRandom,
  kSagaSensorOnly,
  kSagaPointOnly,
  kSagaSubPeriodOnly,
  kSagaPeriodOnly,
  kLimu,
  kClHar,
  kTpn,
  kNoPretrain,
};

std::string method_name(Method method);

/// All methods compared in the paper's Fig. 6.
inline constexpr std::array<Method, 5> kFig6Methods{
    Method::kSaga, Method::kLimu, Method::kClHar, Method::kTpn,
    Method::kNoPretrain};

/// All ablation variants of Fig. 12.
inline constexpr std::array<Method, 6> kFig12Methods{
    Method::kSagaSensorOnly, Method::kSagaPointOnly, Method::kSagaSubPeriodOnly,
    Method::kSagaPeriodOnly, Method::kSagaRandom, Method::kSaga};

struct PipelineConfig {
  models::BackboneConfig backbone;      // input_channels is set from the dataset
  models::ClassifierConfig classifier;  // num_classes is set from the task
  train::PretrainConfig pretrain;
  train::FinetuneConfig finetune;
  bo::LwsConfig lws;
  baselines::ClHarConfig clhar;
  baselines::TpnConfig tpn;
  /// LWS inner trials run this fraction of the configured pre-train /
  /// fine-tune epochs (search cheaply, train the final model fully).
  double lws_epoch_fraction = 0.5;
  /// Dataset split fractions (paper: 6:2:2).
  double train_fraction = 0.6;
  double validation_fraction = 0.2;
  std::uint64_t seed = 1234;
};

/// Configuration matching the paper's §VII-A1 setup: hidden 72, 4 blocks,
/// 50+50 epochs. Intended for server-class runs.
PipelineConfig paper_profile();

/// Scaled-down configuration for laptop-class machines and the default
/// benchmark harness: smaller backbone (hidden 48, 2 blocks), fewer epochs,
/// small LWS budget. Same algorithms, same comparisons — only budgets shrink.
PipelineConfig fast_profile();

/// Snapshot of the models a run() trained: configs plus un-namespaced
/// state_dicts. This is what serve::Artifact::from_pipeline packages for
/// deployment; reconstructing models from it is bit-exact.
struct TrainedModels {
  models::BackboneConfig backbone_config;
  models::ClassifierConfig classifier_config;
  util::NamedBlobs backbone_state;
  util::NamedBlobs classifier_state;
};

struct RunResult {
  Method method = Method::kNoPretrain;
  train::Metrics validation;
  train::Metrics test;
  /// Pre-training task weights actually used ({0,0,0,0} for non-masking
  /// methods).
  train::TaskWeights weights{};
  double pretrain_seconds = 0.0;
  double finetune_seconds = 0.0;
  std::int64_t lws_trials = 0;
  std::int64_t labelled_samples = 0;
};

class Pipeline {
 public:
  Pipeline(const data::Dataset& dataset, data::Task task, PipelineConfig config);

  /// Runs `method` with a stratified labelled subset of the training split
  /// at the given labelling rate (0 < rate <= 1).
  RunResult run(Method method, double labelling_rate);

  /// Runs `method` with at most `per_class` labelled samples per class.
  RunResult run_per_class(Method method, std::int64_t per_class);

  const data::Split& split() const noexcept { return split_; }
  const PipelineConfig& config() const noexcept { return config_; }
  const data::Dataset& dataset() const noexcept { return *dataset_; }
  data::Task task() const noexcept { return task_; }

  /// True once run()/run_per_class() has trained at least one model pair.
  bool has_trained() const noexcept { return trained_.has_value(); }
  /// The models trained by the most recent run (the final full-budget cycle
  /// for Saga/LWS); throws std::runtime_error before the first run.
  const TrainedModels& trained() const;

 private:
  RunResult run_with_labelled(Method method,
                              const std::vector<std::int64_t>& labelled,
                              std::uint64_t run_seed);

  const data::Dataset* dataset_;
  data::Task task_;
  PipelineConfig config_;
  data::Split split_;
  std::optional<TrainedModels> trained_;
};

}  // namespace saga::core
