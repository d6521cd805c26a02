#include "nn/attention.hpp"

#include <stdexcept>
#include <string>

#include "tensor/attention_fused.hpp"

namespace saga::nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(std::int64_t dim,
                                               std::int64_t num_heads,
                                               util::Rng& rng)
    : dim_(dim), heads_(num_heads) {
  if (dim % num_heads != 0) {
    throw std::invalid_argument("attention: dim must divide num_heads");
  }
  wq_ = register_module("wq", std::make_shared<Linear>(dim, dim, rng));
  wk_ = register_module("wk", std::make_shared<Linear>(dim, dim, rng));
  wv_ = register_module("wv", std::make_shared<Linear>(dim, dim, rng));
  wo_ = register_module("wo", std::make_shared<Linear>(dim, dim, rng));
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x) {
  if (x.dim() != 3 || x.size(2) != dim_) {
    throw std::invalid_argument("attention: expects [B, T, " +
                                std::to_string(dim_) + "]");
  }
  const Tensor q = wq_->forward(x);
  const Tensor k = wk_->forward(x);
  const Tensor v = wv_->forward(x);
  return wo_->forward(fused_multi_head_attention(q, k, v, heads_));
}

}  // namespace saga::nn
