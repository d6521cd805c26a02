// Portable eltwise kernels: the semantic reference for the fused ops.
//
// Each loop performs exactly the per-element arithmetic of the composed ops
// it replaces (broadcast add, add + gelu, add + layer norm, the GRU gate
// chain), in the same order — so forced-scalar fused results are
// bit-identical to the composed references in tests/reference.hpp (tested in
// tests/test_eltwise.cpp and tests/test_gru_cell.cpp). The block average is
// pinned against the preprocessing oracle in tests/test_preprocess.cpp.
#include <algorithm>
#include <cmath>

#include "tensor/eltwise/gelu_math.hpp"
#include "tensor/eltwise/gru_math.hpp"
#include "tensor/eltwise/kernels.hpp"

namespace saga::eltwise::detail {

namespace {

void tile_add(const float* x, const float* t, float* out, std::int64_t blocks,
              std::int64_t m) {
  for (std::int64_t b = 0; b < blocks; ++b) {
    const float* xb = x + b * m;
    float* ob = out + b * m;
    for (std::int64_t j = 0; j < m; ++j) ob[j] = xb[j] + t[j];
  }
}

void tile_add_bwd(const float* g, float* gt, std::int64_t blocks,
                  std::int64_t m) {
  for (std::int64_t b = 0; b < blocks; ++b) {
    const float* gb = g + b * m;
    for (std::int64_t j = 0; j < m; ++j) gt[j] += gb[j];
  }
}

void bias_gelu(const float* x, const float* t, float* y, std::int64_t blocks,
               std::int64_t m) {
  if (t == nullptr) {
    const std::int64_t n = blocks * m;
    for (std::int64_t i = 0; i < n; ++i) y[i] = gelu_fwd_ref(x[i]);
    return;
  }
  for (std::int64_t b = 0; b < blocks; ++b) {
    const float* xb = x + b * m;
    float* yb = y + b * m;
    for (std::int64_t j = 0; j < m; ++j) yb[j] = gelu_fwd_ref(xb[j] + t[j]);
  }
}

void bias_gelu_bwd(const float* x, const float* t, const float* g, float* dx,
                   float* dt, std::int64_t blocks, std::int64_t m) {
  for (std::int64_t b = 0; b < blocks; ++b) {
    const float* xb = x + b * m;
    const float* gb = g + b * m;
    float* dxb = dx == nullptr ? nullptr : dx + b * m;
    for (std::int64_t j = 0; j < m; ++j) {
      const float z = t == nullptr ? xb[j] : xb[j] + t[j];
      const float d = gelu_grad_ref(z) * gb[j];
      if (dxb != nullptr) dxb[j] += d;
      if (dt != nullptr) dt[j] += d;
    }
  }
}

void layer_norm(const float* x, const float* r, const float* gamma,
                const float* beta, float eps, float* y, float* xhat,
                float* inv_std, std::int64_t rows, std::int64_t d) {
  for (std::int64_t row = 0; row < rows; ++row) {
    const float* xr = x + row * d;
    const float* rr = r == nullptr ? nullptr : r + row * d;
    float* yr = y + row * d;
    // Stage the summed row in y so the reductions below match the composed
    // path (add materializes s, then layer_norm reads it) bit-for-bit.
    if (rr == nullptr) {
      for (std::int64_t c = 0; c < d; ++c) yr[c] = xr[c];
    } else {
      for (std::int64_t c = 0; c < d; ++c) yr[c] = xr[c] + rr[c];
    }
    double mu = 0.0;
    for (std::int64_t c = 0; c < d; ++c) mu += yr[c];
    mu /= static_cast<double>(d);
    double var = 0.0;
    for (std::int64_t c = 0; c < d; ++c) {
      const double diff = yr[c] - mu;
      var += diff * diff;
    }
    var /= static_cast<double>(d);
    const float istd = static_cast<float>(1.0 / std::sqrt(double(var) + eps));
    if (inv_std != nullptr) inv_std[row] = istd;
    float* xh_row = xhat == nullptr ? nullptr : xhat + row * d;
    for (std::int64_t c = 0; c < d; ++c) {
      const float xh = (yr[c] - static_cast<float>(mu)) * istd;
      if (xh_row != nullptr) xh_row[c] = xh;
      yr[c] = gamma[c] * xh + beta[c];
    }
  }
}

void layer_norm_bwd(const float* xhat, const float* inv_std,
                    const float* gamma, const float* g, float* gx, float* gr,
                    float* ggamma, float* gbeta, std::int64_t rows,
                    std::int64_t d) {
  for (std::int64_t row = 0; row < rows; ++row) {
    const float* grow = g + row * d;
    const float* xh = xhat + row * d;
    const float istd = inv_std[row];
    if (ggamma != nullptr || gbeta != nullptr) {
      for (std::int64_t c = 0; c < d; ++c) {
        if (ggamma != nullptr) ggamma[c] += grow[c] * xh[c];
        if (gbeta != nullptr) gbeta[c] += grow[c];
      }
    }
    if (gx != nullptr || gr != nullptr) {
      // dx = istd * (h - mean(h) - xhat * mean(h * xhat)), h = gamma * dy.
      double mean_h = 0.0;
      double mean_hx = 0.0;
      for (std::int64_t c = 0; c < d; ++c) {
        const double h = double(gamma[c]) * grow[c];
        mean_h += h;
        mean_hx += h * xh[c];
      }
      mean_h /= static_cast<double>(d);
      mean_hx /= static_cast<double>(d);
      float* gxr = gx == nullptr ? nullptr : gx + row * d;
      float* grr = gr == nullptr ? nullptr : gr + row * d;
      for (std::int64_t c = 0; c < d; ++c) {
        const double h = double(gamma[c]) * grow[c];
        const float dxc =
            static_cast<float>(istd * (h - mean_h - xh[c] * mean_hx));
        if (gxr != nullptr) gxr[c] += dxc;
        if (grr != nullptr) grr[c] += dxc;
      }
    }
  }
}

void gru_cell(const float* gi, std::int64_t gi_stride, const float* gh,
              const float* h, float* out, float* rzn, std::int64_t batch,
              std::int64_t hidden) {
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* gib = gi + b * gi_stride;
    const float* ghb = gh + b * 3 * hidden;
    const float* hb = h + b * hidden;
    float* ob = out + b * hidden;
    float* rznb = rzn == nullptr ? nullptr : rzn + b * 3 * hidden;
    for (std::int64_t j = 0; j < hidden; ++j) {
      float r;
      float z;
      float n;
      ob[j] = gru_cell_fwd_ref(gib[j], gib[hidden + j], gib[2 * hidden + j],
                               ghb[j], ghb[hidden + j], ghb[2 * hidden + j],
                               hb[j], r, z, n);
      if (rznb != nullptr) {
        rznb[j] = r;
        rznb[hidden + j] = z;
        rznb[2 * hidden + j] = n;
      }
    }
  }
}

void gru_cell_bwd(const float* rzn, const float* gh, const float* h,
                  const float* g, float* dgi, std::int64_t gi_stride,
                  float* dgh, float* dh, std::int64_t batch,
                  std::int64_t hidden) {
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* rznb = rzn + b * 3 * hidden;
    const float* ghb = gh + b * 3 * hidden;
    const float* hb = h + b * hidden;
    const float* gb = g + b * hidden;
    float* dgib = dgi == nullptr ? nullptr : dgi + b * gi_stride;
    float* dghb = dgh == nullptr ? nullptr : dgh + b * 3 * hidden;
    float* dhb = dh == nullptr ? nullptr : dh + b * hidden;
    for (std::int64_t j = 0; j < hidden; ++j) {
      const GruCellGrads d =
          gru_cell_bwd_ref(rznb[j], rznb[hidden + j], rznb[2 * hidden + j],
                           ghb[2 * hidden + j], hb[j], gb[j]);
      if (dgib != nullptr) {
        dgib[j] += d.dgi_r;
        dgib[hidden + j] += d.dgi_z;
        dgib[2 * hidden + j] += d.dgi_n;
      }
      if (dghb != nullptr) {
        dghb[j] += d.dgh_r;
        dghb[hidden + j] += d.dgh_z;
        dghb[2 * hidden + j] += d.dgh_n;
      }
      if (dhb != nullptr) dhb[j] += d.dh;
    }
  }
}

void bias_act_quant(const float* x, const float* t, bool gelu, float inv_scale,
                    std::int32_t zero, std::int32_t qmax, std::uint8_t* out,
                    std::int64_t out_stride, std::int64_t blocks,
                    std::int64_t m) {
  for (std::int64_t b = 0; b < blocks; ++b) {
    const float* xb = x + b * m;
    std::uint8_t* ob = out + b * out_stride;
    for (std::int64_t j = 0; j < m; ++j) {
      float act = t == nullptr ? xb[j] : xb[j] + t[j];
      if (gelu) act = gelu_fwd_ref(act);
      ob[j] = static_cast<std::uint8_t>(
          quantize_code(act * inv_scale, qmax) + zero);
    }
    for (std::int64_t j = m; j < out_stride; ++j) ob[j] = 0;
  }
}

// Channels go in pairs with independent accumulators, so a row has several
// dependency chains in flight while each channel keeps its own summation
// order; an odd count ends in a scalar tail.
void block_average(const float* in, std::int64_t out_length,
                   std::int64_t channels, std::int64_t factor,
                   std::int64_t acc_axes, float acc_scale, float* out) {
  const auto divisor = static_cast<double>(factor);
  for (std::int64_t t = 0; t < out_length;
       ++t, in += factor * channels, out += channels) {
    if (factor == 1) {
      std::copy(in, in + channels, out);
    } else {
      std::int64_t c = 0;
      for (; c + 1 < channels; c += 2) {
        double acc0 = 0.0;
        double acc1 = 0.0;
        const float* p = in + c;
        for (std::int64_t k = 0; k < factor; ++k, p += channels) {
          acc0 += p[0];
          acc1 += p[1];
        }
        out[c] = static_cast<float>(acc0 / divisor);
        out[c + 1] = static_cast<float>(acc1 / divisor);
      }
      if (c < channels) {
        double acc = 0.0;
        const float* p = in + c;
        for (std::int64_t k = 0; k < factor; ++k, p += channels) acc += *p;
        out[c] = static_cast<float>(acc / divisor);
      }
    }
    for (std::int64_t a = 0; a < acc_axes; ++a) out[a] *= acc_scale;
  }
}

constexpr Kernels kScalarKernels{tile_add,      tile_add_bwd,  bias_gelu,
                                 bias_gelu_bwd, layer_norm,    layer_norm_bwd,
                                 gru_cell,      gru_cell_bwd,  bias_act_quant,
                                 block_average};

}  // namespace

const Kernels& scalar_kernels() { return kScalarKernels; }

}  // namespace saga::eltwise::detail
