// IMU data augmentations for the contrastive baselines (paper §VII-A3).
//
// The paper follows Xu et al.'s "complete" augmentations — transforms that
// can be fully expressed from the original observations and known physical
// states. We implement the standard complete set: 3-D rotation of each
// sensor triad, magnitude scaling, jitter, time reversal, circular time
// shift, and axis permutation within a triad.
//
// Consumes: [B, T, C] batches (C a multiple of 3 — whole sensor triads).
// Produces: augmented batches of the same shape for clhar.hpp / tpn.hpp.
// Per-sample work fans out over util::parallel_for with seeds derived per
// sample, so results are independent of thread-pool size.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace saga::baselines {

enum class Augmentation : std::int32_t {
  kIdentity = 0,
  kRotation = 1,
  kScaling = 2,
  kJitter = 3,
  kTimeReversal = 4,
  kTimeShift = 5,
  kAxisPermutation = 6,
};

inline constexpr std::int32_t kNumAugmentations = 7;

/// Applies an independently chosen random augmentation (never identity) per
/// sample — the "view" generator for contrastive pre-training.
Tensor random_view(const Tensor& inputs, std::uint64_t seed);

/// Applies per-sample augmentations given explicitly (used by TPN, whose
/// pre-training task is to classify which transform was applied); each
/// sample uses an independent seed stream. Channels are treated as
/// consecutive 3-axis sensor triads (C must be a multiple of 3).
Tensor apply_per_sample(const Tensor& inputs,
                        const std::vector<std::int32_t>& augmentation_ids,
                        std::uint64_t seed);

}  // namespace saga::baselines
