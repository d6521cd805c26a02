// Weight initialization schemes.
#pragma once

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace saga::nn {

/// Xavier/Glorot uniform: U(-a, a), a = sqrt(6 / (fan_in + fan_out)).
Tensor xavier_uniform(Shape shape, std::int64_t fan_in, std::int64_t fan_out,
                      util::Rng& rng);

}  // namespace saga::nn
