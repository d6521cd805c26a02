// Reductions and row-wise normalizations with fused backward passes.
#pragma once

#include "tensor/tensor.hpp"

namespace saga {

/// Sum of all elements -> scalar [1].
Tensor sum(const Tensor& a);
/// Mean of all elements -> scalar [1].
Tensor mean(const Tensor& a);

/// Log-softmax over the last dimension (numerically stable).
Tensor log_softmax_lastdim(const Tensor& a);

/// Mean over the second dimension of a [B, T, D] tensor -> [B, D]
/// (sequence pooling).
Tensor mean_over_time(const Tensor& x);

/// Row-wise argmax of a [N, C] tensor (no gradient).
std::vector<std::int64_t> argmax_lastdim(const Tensor& a);

}  // namespace saga
