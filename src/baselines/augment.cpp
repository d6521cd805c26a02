#include "baselines/augment.hpp"

#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace saga::baselines {

namespace {

using Mat3 = std::array<std::array<double, 3>, 3>;

Mat3 random_rotation(util::Rng& rng) {
  const double yaw = rng.uniform(0.0, 2.0 * std::numbers::pi);
  const double pitch = rng.uniform(-0.5, 0.5);
  const double roll = rng.uniform(-0.5, 0.5);
  const double cy = std::cos(yaw), sy = std::sin(yaw);
  const double cp = std::cos(pitch), sp = std::sin(pitch);
  const double cr = std::cos(roll), sr = std::sin(roll);
  return {{{cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr},
           {sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr},
           {-sp, cp * sr, cp * cr}}};
}

void augment_window(float* window, std::int64_t length, std::int64_t channels,
                    Augmentation augmentation, util::Rng& rng) {
  const std::int64_t triads = channels / 3;
  switch (augmentation) {
    case Augmentation::kIdentity:
      break;
    case Augmentation::kRotation: {
      // One rotation per window applied to every triad (rigid re-orientation
      // of the device — physically realizable, hence "complete").
      const Mat3 rot = random_rotation(rng);
      for (std::int64_t t = 0; t < length; ++t) {
        float* row = window + t * channels;
        for (std::int64_t s = 0; s < triads; ++s) {
          float* v = row + s * 3;
          const std::array<double, 3> in{v[0], v[1], v[2]};
          for (int i = 0; i < 3; ++i) {
            const auto iu = static_cast<std::size_t>(i);
            v[i] = static_cast<float>(rot[iu][0] * in[0] + rot[iu][1] * in[1] +
                                      rot[iu][2] * in[2]);
          }
        }
      }
      break;
    }
    case Augmentation::kScaling: {
      const auto factor = static_cast<float>(rng.uniform(0.8, 1.2));
      for (std::int64_t i = 0; i < length * channels; ++i) window[i] *= factor;
      break;
    }
    case Augmentation::kJitter: {
      const double sigma = rng.uniform(0.01, 0.05);
      for (std::int64_t i = 0; i < length * channels; ++i) {
        window[i] += static_cast<float>(rng.normal(0.0, sigma));
      }
      break;
    }
    case Augmentation::kTimeReversal: {
      for (std::int64_t t = 0; t < length / 2; ++t) {
        float* a = window + t * channels;
        float* b = window + (length - 1 - t) * channels;
        for (std::int64_t c = 0; c < channels; ++c) std::swap(a[c], b[c]);
      }
      break;
    }
    case Augmentation::kTimeShift: {
      const std::int64_t shift = rng.uniform_int(1, length - 1);
      std::vector<float> copy(window, window + length * channels);
      for (std::int64_t t = 0; t < length; ++t) {
        const std::int64_t src = (t + shift) % length;
        for (std::int64_t c = 0; c < channels; ++c) {
          window[t * channels + c] = copy[static_cast<std::size_t>(src * channels + c)];
        }
      }
      break;
    }
    case Augmentation::kAxisPermutation: {
      // Same 3-cycle applied to every triad.
      const std::array<std::array<int, 3>, 2> cycles{{{1, 2, 0}, {2, 0, 1}}};
      const auto& perm = cycles[static_cast<std::size_t>(rng.uniform_int(0, 1))];
      for (std::int64_t t = 0; t < length; ++t) {
        float* row = window + t * channels;
        for (std::int64_t s = 0; s < triads; ++s) {
          float* v = row + s * 3;
          const std::array<float, 3> in{v[0], v[1], v[2]};
          for (int i = 0; i < 3; ++i) {
            v[i] = in[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
          }
        }
      }
      break;
    }
  }
}

Tensor transform_batch(const Tensor& inputs,
                       const std::function<Augmentation(std::size_t)>& pick,
                       std::uint64_t seed) {
  if (inputs.dim() != 3) throw std::invalid_argument("augment: expects [B,T,C]");
  const std::int64_t batch = inputs.size(0);
  const std::int64_t length = inputs.size(1);
  const std::int64_t channels = inputs.size(2);
  if (channels % 3 != 0) {
    throw std::invalid_argument("augment: channels must be triads");
  }
  std::vector<float> values(inputs.data().begin(), inputs.data().end());

  util::SeedSplitter splitter(seed);
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(batch));
  for (auto& s : seeds) s = splitter.next();

  util::parallel_for(0, static_cast<std::size_t>(batch), [&](std::size_t i) {
    util::Rng rng(seeds[i]);
    augment_window(values.data() + static_cast<std::int64_t>(i) * length * channels,
                   length, channels, pick(i), rng);
  });
  return Tensor::from_data(inputs.shape(), std::move(values));
}

}  // namespace

Tensor random_view(const Tensor& inputs, std::uint64_t seed) {
  const std::int64_t batch = inputs.size(0);
  util::Rng pick_rng(seed ^ 0xC0FFEE);
  std::vector<Augmentation> picks(static_cast<std::size_t>(batch));
  for (auto& p : picks) {
    p = static_cast<Augmentation>(pick_rng.uniform_int(1, kNumAugmentations - 1));
  }
  return transform_batch(inputs, [picks](std::size_t i) { return picks[i]; }, seed);
}

Tensor apply_per_sample(const Tensor& inputs,
                        const std::vector<std::int32_t>& augmentation_ids,
                        std::uint64_t seed) {
  if (static_cast<std::int64_t>(augmentation_ids.size()) != inputs.size(0)) {
    throw std::invalid_argument("augment: id count != batch size");
  }
  return transform_batch(
      inputs,
      [&](std::size_t i) {
        const auto id = augmentation_ids[i];
        if (id < 0 || id >= kNumAugmentations) {
          throw std::out_of_range("augment: bad augmentation id");
        }
        return static_cast<Augmentation>(id);
      },
      seed);
}

}  // namespace saga::baselines
