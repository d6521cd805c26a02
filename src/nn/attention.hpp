// Multi-head self-attention (the core of the LIMU-BERT backbone).
#pragma once

#include <memory>

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace saga::nn {

/// Scaled dot-product multi-head self-attention over [B, T, D] sequences.
/// D must be divisible by num_heads. The q/k/v projections feed the fused
/// kernel (tensor/attention_fused.hpp), which applies no dropout to the
/// attention probabilities; the slice-per-head composed reference it is
/// tested against lives in tests/reference.hpp.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(std::int64_t dim, std::int64_t num_heads,
                         util::Rng& rng);

  Tensor forward(const Tensor& x);

  std::int64_t num_heads() const noexcept { return heads_; }

 private:
  std::int64_t dim_;
  std::int64_t heads_;
  std::shared_ptr<Linear> wq_;
  std::shared_ptr<Linear> wk_;
  std::shared_ptr<Linear> wv_;
  std::shared_ptr<Linear> wo_;
};

}  // namespace saga::nn
