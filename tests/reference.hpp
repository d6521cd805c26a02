// Reference implementations the tests compare production code against:
// each spells out with public ops the arithmetic a fused or fast path
// replaces, so equality (or closeness) with it pins that path's numerics.
// Production code never calls them; src/ holds one path per op.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <utility>
#include <vector>

#include "nn/attention.hpp"
#include "nn/gru.hpp"
#include "quant/quant.hpp"
#include "signal/fft.hpp"
#include "tensor/eltwise/eltwise.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/reduce.hpp"
#include "tensor/shape_ops.hpp"
#include "tensor/tensor.hpp"

namespace saga::reference {

/// Layer norm over the last dimension, with its own backward:
/// y = gamma * (x - mu) / sqrt(var + eps) + beta, moments accumulated in
/// double. eltwise::residual_layer_norm's scalar kernel must reproduce it
/// bit for bit, forward and backward. x, gamma, beta are dense; gamma and
/// beta are [D].
inline Tensor layer_norm_lastdim(const Tensor& x, const Tensor& gamma,
                                 const Tensor& beta, float eps = 1e-5F) {
  const std::int64_t cols = x.size(-1);
  const std::int64_t rows = x.numel() / cols;
  std::vector<float> out(static_cast<std::size_t>(x.numel()));
  std::vector<float> xhat(out.size());
  std::vector<float> inv_std(static_cast<std::size_t>(rows));
  const float* xd = x.data().data();
  const float* gd = gamma.data().data();
  const float* bd = beta.data().data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = xd + r * cols;
    double mu = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) mu += row[c];
    mu /= static_cast<double>(cols);
    double var = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      const double d = row[c] - mu;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
    inv_std[static_cast<std::size_t>(r)] = istd;
    float* xh_row = xhat.data() + r * cols;
    float* y = out.data() + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) {
      xh_row[c] = (row[c] - static_cast<float>(mu)) * istd;
      y[c] = gd[c] * xh_row[c] + bd[c];
    }
  }
  return detail::make_result(
      x.shape(), std::move(out), {&x, &gamma, &beta}, "layer_norm", [&] {
        return [x_impl = x.impl(), g_impl = gamma.impl(), b_impl = beta.impl(),
                rows, cols, xhat = std::move(xhat),
                inv_std = std::move(inv_std)](const TensorImpl& o) {
          const auto grad_of = [](TensorImpl& impl) {
            return detail::wants_grad(impl) ? impl.grad_ptr() : nullptr;
          };
          const float* go = o.grad_ptr();
          const float* gamma_d = g_impl->data_ptr();
          float* gx = grad_of(*x_impl);
          float* gg = grad_of(*g_impl);
          float* gb = grad_of(*b_impl);
          for (std::int64_t r = 0; r < rows; ++r) {
            const float* gr = go + r * cols;
            const float* xh = xhat.data() + r * cols;
            const float istd = inv_std[static_cast<std::size_t>(r)];
            for (std::int64_t c = 0; c < cols; ++c) {
              if (gg != nullptr) gg[c] += gr[c] * xh[c];
              if (gb != nullptr) gb[c] += gr[c];
            }
            if (gx == nullptr) continue;
            // dx = istd * (h - mean(h) - xhat * mean(h * xhat)), h = gamma*dy.
            double mean_h = 0.0;
            double mean_hx = 0.0;
            for (std::int64_t c = 0; c < cols; ++c) {
              const double h = double(gamma_d[c]) * gr[c];
              mean_h += h;
              mean_hx += h * xh[c];
            }
            mean_h /= static_cast<double>(cols);
            mean_hx /= static_cast<double>(cols);
            float* gxr = gx + r * cols;
            for (std::int64_t c = 0; c < cols; ++c) {
              const double h = double(gamma_d[c]) * gr[c];
              gxr[c] +=
                  static_cast<float>(istd * (h - mean_h - xh[c] * mean_hx));
            }
          }
        };
      });
}

/// Element-wise autograd op out = fwd(x) with dL/dx += grad(out, dL/dout),
/// built on detail::make_result like the library's own unary ops.
template <typename Fwd, typename Grad>
Tensor unary_op(const Tensor& a_in, const char* name, Fwd fwd, Grad grad) {
  const Tensor a = contiguous(a_in);
  const auto av = a.data();
  std::vector<float> out(av.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = fwd(av[i]);
  return detail::make_result(a.shape(), std::move(out), {&a}, name, [&] {
    return [a_impl = a.impl(), grad](const TensorImpl& o) {
      if (!detail::wants_grad(*a_impl)) return;
      float* ga = a_impl->grad_ptr();
      const float* od = o.data_ptr();
      const float* go = o.grad_ptr();
      const auto n = static_cast<std::size_t>(o.numel());
      for (std::size_t i = 0; i < n; ++i) ga[i] += grad(od[i], go[i]);
    };
  });
}

/// The composed GRU chain's activations. Their per-element forward and
/// backward expressions are the ones the fused cell's scalar kernel
/// (src/tensor/eltwise/gru_math.hpp) reproduces bit for bit.
inline Tensor sigmoid(const Tensor& a) {
  return unary_op(
      a, "sigmoid", [](float x) { return 1.0F / (1.0F + std::exp(-x)); },
      [](float y, float g) { return g * y * (1.0F - y); });
}
inline Tensor tanh_op(const Tensor& a) {
  return unary_op(
      a, "tanh", [](float x) { return std::tanh(x); },
      [](float y, float g) { return g * (1.0F - y * y); });
}
inline Tensor neg(const Tensor& a) {
  return unary_op(
      a, "neg", [](float x) { return -x; }, [](float, float g) { return -g; });
}

/// Softmax over the last dimension (the attention oracle's row softmax),
/// with its own backward; sums in double.
inline Tensor softmax_lastdim(const Tensor& a_in) {
  const Tensor a = contiguous(a_in);
  const std::int64_t cols = a.size(-1);
  const std::int64_t rows = a.numel() / cols;
  std::vector<float> out(static_cast<std::size_t>(a.numel()));
  const float* src = a.data().data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = src + r * cols;
    float* y = out.data() + r * cols;
    float max_v = x[0];
    for (std::int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, x[c]);
    double denom = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      y[c] = std::exp(x[c] - max_v);
      denom += y[c];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t c = 0; c < cols; ++c) y[c] *= inv;
  }
  return detail::make_result(a.shape(), std::move(out), {&a}, "softmax", [&] {
    return [a_impl = a.impl(), rows, cols](const TensorImpl& o) {
      if (!detail::wants_grad(*a_impl)) return;
      float* ga = a_impl->grad_ptr();
      const float* y = o.data_ptr();
      const float* go = o.grad_ptr();
      for (std::int64_t r = 0; r < rows; ++r) {
        const float* yr = y + r * cols;
        const float* gr = go + r * cols;
        float* gar = ga + r * cols;
        double dot = 0.0;
        for (std::int64_t c = 0; c < cols; ++c) dot += double(yr[c]) * gr[c];
        for (std::int64_t c = 0; c < cols; ++c) {
          gar[c] += yr[c] * (gr[c] - static_cast<float>(dot));
        }
      }
    };
  });
}

/// nn::GRUCell::step as the composed gate chain over [r | z | n] slices
/// (bit-identical to it on the scalar eltwise kernel, forward and backward):
/// r = sigmoid(gi_r + gh_r), z = sigmoid(gi_z + gh_z),
/// n = tanh(gi_n + r * gh_n), h' = (1 - z) * n + z * h, with
/// gh = h W_hh + b_hh as the cell's fp32 path computes it. parameters()
/// lists w_ih, w_hh, b_ih, b_hh.
inline Tensor gru_step_composed(const nn::GRUCell& cell, const Tensor& gi,
                                const Tensor& h) {
  const std::vector<Tensor> params = cell.parameters();
  const Tensor gh = eltwise::bias_add(matmul(h, params[1]), params[3]);
  const std::int64_t hidden = cell.hidden_dim();
  const Tensor r =
      sigmoid(add(slice(gi, 1, 0, hidden), slice(gh, 1, 0, hidden)));
  const Tensor z = sigmoid(
      add(slice(gi, 1, hidden, hidden), slice(gh, 1, hidden, hidden)));
  const Tensor n = tanh_op(add(slice(gi, 1, 2 * hidden, hidden),
                               mul(r, slice(gh, 1, 2 * hidden, hidden))));
  const Tensor one_minus_z = add_scalar(neg(z), 1.0F);
  return add(mul(one_minus_z, n), mul(z, h));
}

/// Scaled dot-product attention per head, composed from slice/bmm/softmax
/// and concatenated back: q, k, v are [B, T, D] with D divisible by heads.
inline Tensor composed_attention(const Tensor& q, const Tensor& k,
                                 const Tensor& v, std::int64_t heads) {
  const std::int64_t head_dim = q.size(2) / heads;
  const float inv_sqrt_d = 1.0F / std::sqrt(static_cast<float>(head_dim));
  std::vector<Tensor> head_outputs;
  for (std::int64_t h = 0; h < heads; ++h) {
    const Tensor qh = slice(q, 2, h * head_dim, head_dim);  // [B, T, Dh]
    const Tensor kh = slice(k, 2, h * head_dim, head_dim);
    const Tensor vh = slice(v, 2, h * head_dim, head_dim);
    const Tensor scores = scale(bmm(qh, kh, false, true), inv_sqrt_d);
    head_outputs.push_back(bmm(softmax_lastdim(scores), vh));
  }
  return concat(head_outputs, 2);
}

/// The module's forward with composed_attention in place of the fused
/// kernel (equal to rounding). parameters() lists wq, wk, wv, wo, each as
/// weight [D, D] then bias [D].
inline Tensor multi_head_attention(const nn::MultiHeadSelfAttention& module,
                                   const Tensor& x) {
  const std::vector<Tensor> p = module.parameters();
  const auto project = [&](const Tensor& in, std::size_t layer) {
    const Tensor flat = reshape(in, {-1, in.size(2)});
    return reshape(add(matmul(flat, p[2 * layer]), p[2 * layer + 1]),
                   in.shape());
  };
  const Tensor context = composed_attention(project(x, 0), project(x, 1),
                                            project(x, 2), module.num_heads());
  return project(context, 3);
}

/// q[i] = round(clamp(x[i] / scale, -act_max, act_max)) + act_zero, rounding
/// to nearest-even; NaN takes code act_zero. Multiplies by the reciprocal
/// scale, as the fused kernels do: eltwise::bias_act_quantize must give the
/// same codes on every kernel.
inline void quantize_activations(
    const float* x, std::int64_t count, float scale, std::uint8_t* out,
    quant::ActEncoding encoding = quant::ActEncoding::k7Bit) {
  const float inv = 1.0F / scale;
  const auto limit = static_cast<float>(quant::act_max(encoding));
  const std::int32_t zero = quant::act_zero(encoding);
  for (std::int64_t i = 0; i < count; ++i) {
    const float v = x[i] * inv;
    const std::int32_t q =
        std::isnan(v) ? 0
                      : static_cast<std::int32_t>(
                            std::lrintf(std::clamp(v, -limit, limit)));
    out[i] = static_cast<std::uint8_t>(q + zero);
  }
}

/// x[i] ~= (q[i] - act_zero) * scale.
inline void dequantize_activations(
    const std::uint8_t* q, std::int64_t count, float scale, float* out,
    quant::ActEncoding encoding = quant::ActEncoding::k7Bit) {
  const int zero = quant::act_zero(encoding);
  for (std::int64_t i = 0; i < count; ++i) {
    out[i] = static_cast<float>(static_cast<int>(q[i]) - zero) * scale;
  }
}

/// O(N^2) DFT of x zero-padded to the FFT's power-of-two length; matches
/// signal::rfft to rounding.
inline std::vector<std::complex<double>> naive_dft(
    const std::vector<double>& x) {
  const std::size_t n = signal::next_pow2(x.size());
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc(0.0, 0.0);
    for (std::size_t t = 0; t < x.size(); ++t) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n);
      acc += x[t] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

}  // namespace saga::reference
