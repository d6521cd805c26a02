// Shared infrastructure for the experiment harness (one binary per paper
// table/figure; see "Experiment harness" in docs/ARCHITECTURE.md).
//
// Default budgets are sized for a 2-core laptop so the whole bench suite
// completes in tens of minutes. Every knob has an environment override:
//   SAGA_BENCH_SAMPLES   windows per synthetic dataset   (default 240)
//   SAGA_PRETRAIN_EPOCHS pre-training epochs             (default 4)
//   SAGA_FINETUNE_EPOCHS fine-tuning epochs              (default 24)
//   SAGA_LWS_BUDGET      BO iterations after warm-up     (default 1)
//   SAGA_FULL=1          paper-scale grid (all rates, all combos)
// Paper-scale numbers (9,166+ windows, 50+50 epochs, LWS budget 8) are what
// core::paper_profile() encodes.
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/saga.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace saga::bench {

inline std::int64_t bench_samples() {
  return util::env_int("SAGA_BENCH_SAMPLES", 240);
}

inline bool full_grid() { return util::env_int("SAGA_FULL", 0) != 0; }

/// The benchmark pipeline configuration (scaled-down fast profile).
inline core::PipelineConfig bench_profile() {
  core::PipelineConfig config = core::fast_profile();
  config.backbone.dropout = 0.0;  // regularization is noise at these budgets
  config.pretrain.epochs = util::env_int("SAGA_PRETRAIN_EPOCHS", 4);
  config.finetune.epochs = util::env_int("SAGA_FINETUNE_EPOCHS", 24);
  // Small models converge faster with a hotter Adam; 1e-3 (paper) needs the
  // paper's 50-epoch budget.
  config.pretrain.learning_rate = util::env_double("SAGA_LR", 2e-3);
  config.finetune.learning_rate = util::env_double("SAGA_LR", 2e-3);
  config.clhar.epochs = config.pretrain.epochs;
  config.tpn.epochs = config.pretrain.epochs;
  config.lws.initial_random = util::env_int("SAGA_LWS_INITIAL", 1);
  config.lws.budget = util::env_int("SAGA_LWS_BUDGET", 1);
  config.lws_epoch_fraction = 0.5;
  config.seed = static_cast<std::uint64_t>(util::env_int("SAGA_SEED", 1234));
  return config;
}

struct Combo {
  std::string dataset_name;  // "hhar" | "motion" | "shoaib"
  data::Task task;
};

inline std::string combo_name(const Combo& combo) {
  return data::task_name(combo.task) + "@" + combo.dataset_name;
}

/// All five task/dataset pairs of paper Table III.
inline std::vector<Combo> paper_combos() {
  return {{"hhar", data::Task::kActivityRecognition},
          {"motion", data::Task::kActivityRecognition},
          {"hhar", data::Task::kUserAuthentication},
          {"shoaib", data::Task::kUserAuthentication},
          {"shoaib", data::Task::kDevicePlacement}};
}

inline data::Dataset make_dataset(const std::string& name) {
  const std::int64_t n = bench_samples();
  if (name == "hhar") return data::generate_dataset(data::hhar_like(n));
  if (name == "motion") return data::generate_dataset(data::motion_like(n));
  if (name == "shoaib") return data::generate_dataset(data::shoaib_like(n));
  throw std::invalid_argument("unknown dataset " + name);
}

/// Labelling rates: paper grid {5, 10, 15, 20}% or the default quick subset.
inline std::vector<double> labelling_rates() {
  if (full_grid()) return {0.05, 0.10, 0.15, 0.20};
  return {0.05, 0.20};
}

/// Caches datasets and per-combo reference accuracies (LIMU on all labels —
/// the denominator of the paper's "relative accuracy").
class Harness {
 public:
  const data::Dataset& dataset(const std::string& name) {
    auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      std::fprintf(stderr, "[bench] generating %s (%lld windows)\n", name.c_str(),
                   static_cast<long long>(bench_samples()));
      it = datasets_.emplace(name, make_dataset(name)).first;
    }
    return it->second;
  }

  double reference_accuracy(const Combo& combo) {
    const std::string key = combo_name(combo);
    auto it = references_.find(key);
    if (it == references_.end()) {
      std::fprintf(stderr, "[bench] training full-label LIMU reference for %s\n",
                   key.c_str());
      core::Pipeline pipeline(dataset(combo.dataset_name), combo.task,
                              bench_profile());
      const auto result = pipeline.run(core::Method::kLimu, 1.0);
      it = references_.emplace(key, std::max(result.test.accuracy, 1e-6)).first;
    }
    return it->second;
  }

  core::RunResult run(const Combo& combo, core::Method method, double rate) {
    core::Pipeline pipeline(dataset(combo.dataset_name), combo.task,
                            bench_profile());
    std::fprintf(stderr, "[bench] %s %s rate=%.0f%%\n", combo_name(combo).c_str(),
                 core::method_name(method).c_str(), 100.0 * rate);
    return pipeline.run(method, rate);
  }

 private:
  std::map<std::string, data::Dataset> datasets_;
  std::map<std::string, double> references_;
};

struct BoxStats {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
};

inline BoxStats box_stats(std::vector<double> values) {
  BoxStats stats;
  if (values.empty()) return stats;
  std::sort(values.begin(), values.end());
  auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
  };
  stats.min = values.front();
  stats.q1 = quantile(0.25);
  stats.median = quantile(0.5);
  stats.q3 = quantile(0.75);
  stats.max = values.back();
  return stats;
}

/// Detailed per-figure sweep (Figs. 7-11): top-3 methods x labelling rates on
/// one task/dataset pair, reporting accuracy, F1 and relative accuracy.
inline void run_detail_figure(const std::string& figure, const Combo& combo) {
  Harness harness;
  const double reference = harness.reference_accuracy(combo);

  std::printf("== %s: top-3 candidate methods on %s ==\n", figure.c_str(),
              combo_name(combo).c_str());
  std::printf("(relative accuracy normalized by full-label LIMU = %.1f%% absolute)\n\n",
              100.0 * reference);

  util::Table table({"method", "rate", "acc%", "F1%", "rel-acc%"});
  const std::vector<core::Method> methods{
      core::Method::kSaga, core::Method::kLimu, core::Method::kClHar};
  for (const auto method : methods) {
    for (const double rate : labelling_rates()) {
      const auto result = harness.run(combo, method, rate);
      table.add_row({core::method_name(method),
                     util::Table::fmt(100.0 * rate, 0) + "%",
                     util::Table::fmt(100.0 * result.test.accuracy, 1),
                     util::Table::fmt(100.0 * result.test.macro_f1, 1),
                     util::Table::fmt(100.0 * result.test.accuracy / reference, 1)});
    }
  }
  table.print();
  std::printf("\npaper shape: Saga >= LIMU > CL-HAR, gaps widest at low rates\n");
}

}  // namespace saga::bench
