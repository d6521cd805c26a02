#include "nn/linear.hpp"

#include <stdexcept>
#include <utility>

#include "nn/init.hpp"
#include "quant/qlinear.hpp"
#include "tensor/eltwise/eltwise.hpp"
#include "tensor/grad_mode.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/shape_ops.hpp"

namespace saga::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               util::Rng& rng, bool with_bias)
    : in_(in_features), out_(out_features) {
  weight_ = register_parameter(
      "weight", xavier_uniform({in_, out_}, in_, out_, rng));
  if (with_bias) {
    bias_ = register_parameter("bias", Tensor::zeros({out_}, true));
  }
}

namespace {

// [N, in] or [B, T, in] -> [rows, in], validated before any work is done:
// checking the feature count only after the 3-D flatten would reinterpret a
// mismatched buffer as wrong-sized rows.
Tensor flatten_input(const Tensor& x, std::int64_t in) {
  if (x.dim() != 2 && x.dim() != 3) {
    throw std::invalid_argument("Linear: input must be 2-D or 3-D");
  }
  if (x.size(-1) != in) {
    throw std::invalid_argument("Linear: expected " + std::to_string(in) +
                                " features, got " + std::to_string(x.size(-1)));
  }
  return x.dim() == 3 ? reshape(x, {-1, in}) : x;
}

// Restores x's leading dimensions on a [rows, out] result.
Tensor unflatten_output(const Tensor& y, const Tensor& x) {
  return x.dim() == 3 ? reshape(y, {x.size(0), x.size(1), y.size(1)}) : y;
}

}  // namespace

Tensor Linear::forward(const Tensor& x, Activation activation) const {
  const Tensor flat = flatten_input(x, in_);
  Tensor y;
  if (quant_ != nullptr && !grad_enabled()) {
    y = quant::linear_forward(flat, *quant_);
  } else {
    quant::observe(this, 0, flat);  // no-op outside a CalibrationScope
    y = matmul(flat, weight_);
  }
  if (activation == Activation::kGelu) {
    y = eltwise::bias_gelu(y, bias_);  // bias_ may be undefined: plain GELU
  } else if (bias_.defined()) {
    y = eltwise::bias_add(y, bias_);
  }
  return unflatten_output(y, x);
}

Tensor Linear::forward_chain(const Tensor& x, Activation activation,
                             const Linear& next) const {
  const bool fused = quant_ != nullptr && next.quant_ != nullptr &&
                     !grad_enabled() && bias_.defined();
  if (!fused) return next.forward(forward(x, activation));
  Tensor y = quant::linear_chain_forward(flatten_input(x, in_), *quant_, bias_,
                                         activation == Activation::kGelu,
                                         *next.quant_);
  if (next.bias_.defined()) y = eltwise::bias_add(y, next.bias_);
  return unflatten_output(y, x);
}

void Linear::set_quantized(std::shared_ptr<const quant::LinearQuant> q) {
  if (q != nullptr && (q->in != in_ || q->out != out_)) {
    throw std::invalid_argument(
        "Linear::set_quantized: quantized weight is [" +
        std::to_string(q->in) + ", " + std::to_string(q->out) +
        "] but the layer is [" + std::to_string(in_) + ", " +
        std::to_string(out_) + "]");
  }
  quant_ = std::move(q);
}

}  // namespace saga::nn
