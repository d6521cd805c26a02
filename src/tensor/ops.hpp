// Elementwise tensor operations (autograd-aware).
//
// Binary ops support NumPy-style right-aligned broadcasting; gradients of
// broadcast inputs are sum-reduced over the broadcast dimensions, matching
// the usual autodiff semantics.
#pragma once

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace saga {

Tensor add(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

/// out = a * factor
Tensor scale(const Tensor& a, float factor);
/// out = a + value
Tensor add_scalar(const Tensor& a, float value);

Tensor relu(const Tensor& a);
Tensor square(const Tensor& a);
Tensor sqrt_op(const Tensor& a);

/// Inverted dropout: scales kept activations by 1/(1-p) during training and
/// is the identity in eval mode (or when p == 0).
Tensor dropout(const Tensor& a, double p, bool training, util::Rng& rng);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return add(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return div(a, b); }

}  // namespace saga
