#include "nn/gru.hpp"

#include <stdexcept>
#include <utility>

#include "nn/init.hpp"
#include "quant/qlinear.hpp"
#include "tensor/eltwise/eltwise.hpp"
#include "tensor/grad_mode.hpp"
#include "tensor/matmul.hpp"
#include "tensor/shape_ops.hpp"

namespace saga::nn {

GRUCell::GRUCell(std::int64_t input_dim, std::int64_t hidden_dim, util::Rng& rng)
    : input_(input_dim), hidden_(hidden_dim) {
  w_ih_ = register_parameter(
      "w_ih", xavier_uniform({input_, 3 * hidden_}, input_, hidden_, rng));
  w_hh_ = register_parameter(
      "w_hh", xavier_uniform({hidden_, 3 * hidden_}, hidden_, hidden_, rng));
  b_ih_ = register_parameter("b_ih", Tensor::zeros({3 * hidden_}, true));
  b_hh_ = register_parameter("b_hh", Tensor::zeros({3 * hidden_}, true));
}

Tensor GRUCell::forward(const Tensor& x, const Tensor& h) const {
  if (x.dim() != 2 || x.size(1) != input_) {
    throw std::invalid_argument("GRUCell: bad input shape");
  }
  return step(precompute_inputs(x), h);
}

Tensor GRUCell::precompute_inputs(const Tensor& x_flat) const {
  Tensor gi;
  if (q_ih_ != nullptr && !grad_enabled()) {
    gi = quant::linear_forward(x_flat, *q_ih_);
  } else {
    quant::observe(this, 0, x_flat);  // no-op outside a CalibrationScope
    gi = matmul(x_flat, w_ih_);
  }
  return eltwise::bias_add(gi, b_ih_);
}

Tensor GRUCell::hidden_gates(const Tensor& h) const {
  Tensor gh;
  if (q_hh_ != nullptr && !grad_enabled()) {
    gh = quant::linear_forward(h, *q_hh_);
  } else {
    quant::observe(this, 1, h);
    gh = matmul(h, w_hh_);
  }
  return eltwise::bias_add(gh, b_hh_);
}

Tensor GRUCell::step(const Tensor& gi, const Tensor& h) const {
  // gh = h W_hh + b_hh. Gate order: [r | z | n]. The fused cell folds the
  // whole gate chain (two sigmoids, a tanh, and the convex state blend) into
  // one sweep; gi passes through as a strided view when it is a timestep
  // slice of the layer's precomputed gate buffer.
  return eltwise::gru_cell(gi, hidden_gates(h), h);
}

void GRUCell::set_quantized(std::shared_ptr<const quant::LinearQuant> ih,
                            std::shared_ptr<const quant::LinearQuant> hh) {
  if (ih != nullptr && (ih->in != input_ || ih->out != 3 * hidden_)) {
    throw std::invalid_argument("GRUCell::set_quantized: w_ih shape mismatch");
  }
  if (hh != nullptr && (hh->in != hidden_ || hh->out != 3 * hidden_)) {
    throw std::invalid_argument("GRUCell::set_quantized: w_hh shape mismatch");
  }
  q_ih_ = std::move(ih);
  q_hh_ = std::move(hh);
}

GRU::GRU(std::int64_t input_dim, std::int64_t hidden_dim, std::int64_t num_layers,
         util::Rng& rng)
    : hidden_(hidden_dim) {
  if (num_layers < 1) throw std::invalid_argument("GRU: num_layers >= 1");
  for (std::int64_t l = 0; l < num_layers; ++l) {
    const std::int64_t in_dim = l == 0 ? input_dim : hidden_dim;
    cells_.push_back(register_module(
        "cell" + std::to_string(l),
        std::make_shared<GRUCell>(in_dim, hidden_dim, rng)));
  }
}

Tensor GRU::forward(const Tensor& x) const {
  if (x.dim() != 3) throw std::invalid_argument("GRU: expects [B, T, D]");
  const std::int64_t batch = x.size(0);
  const std::int64_t steps = x.size(1);

  Tensor layer_input = x;  // [B, T, D_l]
  Tensor h;
  for (std::size_t l = 0; l < cells_.size(); ++l) {
    // All input-gate projections for the layer in one matmul.
    const Tensor gi_flat = cells_[l]->precompute_inputs(
        reshape(layer_input, {batch * steps, layer_input.size(2)}));
    const Tensor gi_all = reshape(gi_flat, {batch, steps, 3 * hidden_});

    const bool last_layer = l + 1 == cells_.size();
    std::vector<Tensor> outputs;
    if (!last_layer) outputs.reserve(static_cast<std::size_t>(steps));

    h = Tensor::zeros({batch, hidden_});
    for (std::int64_t t = 0; t < steps; ++t) {
      h = cells_[l]->step(select(gi_all, 1, t), h);
      if (!last_layer) outputs.push_back(reshape(h, {batch, 1, hidden_}));
    }
    if (!last_layer) layer_input = concat(outputs, 1);  // [B, T, H]
  }
  return h;
}

}  // namespace saga::nn
