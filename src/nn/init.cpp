#include "nn/init.hpp"

#include <cmath>

namespace saga::nn {

Tensor xavier_uniform(Shape shape, std::int64_t fan_in, std::int64_t fan_out,
                      util::Rng& rng) {
  const float a = std::sqrt(6.0F / static_cast<float>(fan_in + fan_out));
  return Tensor::rand_uniform(std::move(shape), rng, -a, a, /*requires_grad=*/true);
}

}  // namespace saga::nn
