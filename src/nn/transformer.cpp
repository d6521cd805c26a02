#include "nn/transformer.hpp"

#include "tensor/ops.hpp"

namespace saga::nn {

TransformerBlock::TransformerBlock(const TransformerConfig& config,
                                   util::Rng& rng, std::uint64_t seed) {
  util::SeedSplitter seeds(seed);
  // The first draw stays unused: dropout1/dropout2 take the second and third,
  // and every seeded training result depends on those two streams.
  (void)seeds.next();
  attn_ = register_module("attn", std::make_shared<MultiHeadSelfAttention>(
                                      config.dim, config.num_heads, rng));
  norm1_ = register_module("norm1", std::make_shared<LayerNorm>(config.dim));
  norm2_ = register_module("norm2", std::make_shared<LayerNorm>(config.dim));
  ff1_ = register_module("ff1",
                         std::make_shared<Linear>(config.dim, config.ff_dim, rng));
  ff2_ = register_module("ff2",
                         std::make_shared<Linear>(config.ff_dim, config.dim, rng));
  dropout1_ = register_module("dropout1",
                              std::make_shared<Dropout>(config.dropout, seeds.next()));
  dropout2_ = register_module("dropout2",
                              std::make_shared<Dropout>(config.dropout, seeds.next()));
}

Tensor TransformerBlock::forward(const Tensor& x) {
  // Residual joins fuse into the layer norms; the feed-forward GELU fuses
  // into ff1's bias epilogue — no composed add/gelu passes on this path.
  // On the int8 path forward_chain goes further: ff1's bias+gelu and ff2's
  // input quantization collapse into one sweep between the two int8 GEMMs.
  Tensor attn_out = dropout1_->forward(attn_->forward(x));
  Tensor h = norm1_->forward_residual(x, attn_out);
  Tensor ff = ff1_->forward_chain(h, Activation::kGelu, *ff2_);
  return norm2_->forward_residual(h, dropout2_->forward(ff));
}

}  // namespace saga::nn
