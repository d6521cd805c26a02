#include "models/backbone.hpp"

#include <stdexcept>

#include "tensor/eltwise/eltwise.hpp"
#include "tensor/ops.hpp"
#include "tensor/shape_ops.hpp"

namespace saga::models {

LimuBertBackbone::LimuBertBackbone(const BackboneConfig& config)
    : config_(config) {
  util::SeedSplitter seeds(config.seed);
  util::Rng init_rng(seeds.next());

  input_proj_ = register_module(
      "input_proj", std::make_shared<nn::Linear>(config.input_channels,
                                                 config.hidden_dim, init_rng));
  positional_ = register_parameter(
      "positional",
      Tensor::randn({config.max_seq_len, config.hidden_dim}, init_rng, 0.02F,
                    /*requires_grad=*/true));
  input_norm_ = register_module("input_norm",
                                std::make_shared<nn::LayerNorm>(config.hidden_dim));
  input_dropout_ = register_module(
      "input_dropout", std::make_shared<nn::Dropout>(config.dropout, seeds.next()));

  nn::TransformerConfig block_config;
  block_config.dim = config.hidden_dim;
  block_config.num_heads = config.num_heads;
  block_config.ff_dim = config.ff_dim;
  block_config.dropout = config.dropout;
  for (std::int64_t b = 0; b < config.num_blocks; ++b) {
    blocks_.push_back(register_module(
        "block" + std::to_string(b),
        std::make_shared<nn::TransformerBlock>(block_config, init_rng,
                                               seeds.next())));
  }
}

Tensor LimuBertBackbone::encode(const Tensor& x) {
  if (x.dim() != 3 || x.size(2) != config_.input_channels) {
    throw std::invalid_argument("backbone: expects [B, T, " +
                                std::to_string(config_.input_channels) + "]");
  }
  const std::int64_t seq_len = x.size(1);
  if (seq_len > config_.max_seq_len) {
    throw std::invalid_argument("backbone: sequence longer than max_seq_len");
  }
  Tensor h = input_proj_->forward(x);                       // [B, T, H]
  const Tensor pos = slice(positional_, 0, 0, seq_len);     // [T, H]
  h = eltwise::bias_add(h, pos);                            // tiled over B
  h = input_dropout_->forward(input_norm_->forward(h));
  for (auto& block : blocks_) h = block->forward(h);
  return h;
}

ReconstructionHead::ReconstructionHead(std::int64_t hidden_dim,
                                       std::int64_t output_channels,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  fc1_ = register_module("fc1",
                         std::make_shared<nn::Linear>(hidden_dim, hidden_dim, rng));
  fc2_ = register_module(
      "fc2", std::make_shared<nn::Linear>(hidden_dim, output_channels, rng));
}

Tensor ReconstructionHead::forward(const Tensor& h) const {
  return fc2_->forward(fc1_->forward(h, nn::Activation::kGelu));
}

}  // namespace saga::models
