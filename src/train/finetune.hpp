// Downstream fine-tuning (paper §V-B): the pre-trained backbone plus a GRU
// classifier are trained end-to-end with cross-entropy (Eq. 8) on the few
// labelled samples; all parameters stay trainable (§VII-A1).
//
// Consumes: a (pre-trained or fresh) backbone + classifier and the labelled
// subset indices from data::subsample_labelled. Produces: both models
// trained in place, and train::Metrics via evaluate() (runs under GradMode
// off). Single-threaded loop, deterministic in config.seed.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "models/backbone.hpp"
#include "models/classifier.hpp"
#include "train/metrics.hpp"

namespace saga::train {

struct FinetuneConfig {
  std::int64_t epochs = 50;  // paper §VII-A1
  std::int64_t batch_size = 32;
  double learning_rate = 1e-3;
  double grad_clip = 5.0;
  /// Paper keeps the whole model trainable; false freezes the backbone
  /// (linear-probe style, used in ablation tests).
  bool train_backbone = true;
  /// Backbone parameters use learning_rate * backbone_lr_scale. 1.0 matches
  /// the paper's single-rate Adam; smaller values protect pre-trained
  /// features when the fine-tuning budget is only tens of steps (the
  /// fast profile uses 0.3 — see core::fast_profile).
  double backbone_lr_scale = 1.0;
  std::uint64_t seed = 11;
};

struct FinetuneStats {
  std::vector<double> epoch_losses;
  double wall_seconds = 0.0;
};

FinetuneStats finetune_classifier(models::LimuBertBackbone& backbone,
                                  models::GruClassifier& classifier,
                                  const data::Dataset& dataset,
                                  const std::vector<std::int64_t>& train_indices,
                                  data::Task task, const FinetuneConfig& config);

/// Evaluates accuracy / macro-F1 on `indices` (no gradients, eval mode).
Metrics evaluate(models::LimuBertBackbone& backbone,
                 models::GruClassifier& classifier, const data::Dataset& dataset,
                 const std::vector<std::int64_t>& indices, data::Task task,
                 std::int64_t batch_size = 64);

}  // namespace saga::train
