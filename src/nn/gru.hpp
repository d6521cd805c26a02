// Gated recurrent unit; the downstream classifier head of the paper uses a
// GRU over the backbone's output sequence (paper §VII-A1, following
// LIMU-BERT's classifier choice).
#pragma once

#include <memory>

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace saga::quant {
struct LinearQuant;
}

namespace saga::nn {

/// Single-layer GRU cell. Weight layout packs the three gates (r, z, n):
/// w_ih [in, 3H], w_hh [H, 3H], biases [3H] each.
class GRUCell : public Module {
 public:
  GRUCell(std::int64_t input_dim, std::int64_t hidden_dim, util::Rng& rng);

  /// One step: x [B, in], h [B, H] -> new h [B, H].
  Tensor forward(const Tensor& x, const Tensor& h) const;

  /// Input-side gate pre-activations for a whole flattened sequence:
  /// x_flat [N, in] -> [N, 3H]. Computing this once per layer (instead of per
  /// time step) halves the GRU's matmul count.
  Tensor precompute_inputs(const Tensor& x_flat) const;

  /// One step given precomputed input gates gi [B, 3H] and state h [B, H].
  /// Uses the fused eltwise::gru_cell kernel; gi may be a strided view (e.g.
  /// one timestep selected from the layer's [B, T, 3H] gate buffer). Under
  /// the forced-scalar eltwise kernel it is bit-identical, forward and
  /// backward, to the composed sigmoid/tanh/mul/add gate chain in
  /// tests/reference.hpp.
  Tensor step(const Tensor& gi, const Tensor& h) const;

  std::int64_t hidden_dim() const noexcept { return hidden_; }

  /// Gate weight matrices [in, 3H] / [H, 3H]; exposed read-only for
  /// post-training quantization.
  const Tensor& weight_ih() const noexcept { return w_ih_; }
  const Tensor& weight_hh() const noexcept { return w_hh_; }

  /// Installs prepacked int8 gate weights (either may be nullptr to leave
  /// that side fp32): the gate matmuls route through the int8 GEMM whenever
  /// gradients are off. Calibration observe slots: 0 = x (w_ih input),
  /// 1 = h (w_hh input).
  void set_quantized(std::shared_ptr<const quant::LinearQuant> ih,
                     std::shared_ptr<const quant::LinearQuant> hh);
  bool quantized() const noexcept {
    return q_ih_ != nullptr || q_hh_ != nullptr;
  }

 private:
  /// gh = h W_hh + b_hh, on the quantized path when available.
  Tensor hidden_gates(const Tensor& h) const;

  std::int64_t input_;
  std::int64_t hidden_;
  Tensor w_ih_;
  Tensor w_hh_;
  Tensor b_ih_;
  Tensor b_hh_;
  std::shared_ptr<const quant::LinearQuant> q_ih_;
  std::shared_ptr<const quant::LinearQuant> q_hh_;
};

/// Multi-layer unidirectional GRU over [B, T, D] sequences.
class GRU : public Module {
 public:
  GRU(std::int64_t input_dim, std::int64_t hidden_dim, std::int64_t num_layers,
      util::Rng& rng);

  /// Runs the full sequence; returns the final hidden state of the last
  /// layer, shape [B, H].
  Tensor forward(const Tensor& x) const;

  std::int64_t hidden_dim() const noexcept { return hidden_; }

 private:
  std::int64_t hidden_;
  std::vector<std::shared_ptr<GRUCell>> cells_;
};

}  // namespace saga::nn
