// AVX2+FMA eltwise kernels. Like the GEMM micro-kernel, this is the only
// eltwise translation unit compiled with -mavx2 -mfma (see CMakeLists); the
// driver dispatches here only after a runtime CPUID check, so the library
// stays baseline-ISA safe.
//
// The GELU kernels use a vectorized Cephes-style expf (range reduction to
// exp(g) * 2^n with a degree-6 polynomial, ~1 ulp) and tanh(z) =
// (e - 1) / (e + 1) with e = exp(2z). The layer-norm reductions accumulate
// in 4-lane double vectors to preserve the scalar path's double-precision
// mean/variance behaviour. Results therefore agree with the scalar kernels
// only to rounding (the same contract as gemm's kernels); each kernel is
// still individually deterministic — plain serial sweeps, no thread or tile
// dependence. The block average's body repeats the scalar arithmetic lane by
// lane and is bit-identical to it.
#include "tensor/eltwise/gelu_math.hpp"
#include "tensor/eltwise/gru_math.hpp"
#include "tensor/eltwise/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>

namespace saga::eltwise::detail {

namespace {

// exp(x) for 8 lanes, clamped to a range whose result stays finite: at the
// high clamp, fx <= 126 so y * 2^fx < FLT_MAX (a clamp at the classic
// 88.376 lets fx reach 128, overflowing the 2^n exponent to inf — which
// would turn downstream (e-1)/(e+1) into inf/inf = NaN). +/-inf lanes clamp
// like any out-of-range value; a NaN lane stays NaN and so comes out NaN,
// as std::exp's does. That rests on the clamp's operand order: minps and
// maxps return their SECOND operand when either is NaN, so x goes second.
inline __m256 exp256(__m256 x) {
  const __m256 hi = _mm256_set1_ps(87.0F);
  const __m256 lo = _mm256_set1_ps(-87.0F);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341F);
  const __m256 c1 = _mm256_set1_ps(0.693359375F);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4F);
  const __m256 one = _mm256_set1_ps(1.0F);

  x = _mm256_max_ps(lo, _mm256_min_ps(hi, x));
  __m256 fx = _mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5F));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, c1, x);
  x = _mm256_fnmadd_ps(fx, c2, x);

  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4F);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3F));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3F));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2F));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1F));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1F));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, one);

  const __m256i n = _mm256_cvttps_epi32(fx);
  const __m256i pow2n =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

inline __m256 tanh256(__m256 x) {
  // Saturation safety rides on exp256 never returning inf: for |2x| past
  // its +/-87 clamp, e is a huge-but-finite float whose +/-1 is absorbed
  // (e +/- 1 == e), so this evaluates to exactly +/-1.0f — matching
  // std::tanh's float saturation, +/-inf included. (With an unclamped exp,
  // e = inf here would make this inf/inf = NaN; pinned by
  // GeluSaturatesAtLargeMagnitudes.) A NaN lane gives NaN, through exp256.
  const __m256 one = _mm256_set1_ps(1.0F);
  const __m256 e = exp256(_mm256_add_ps(x, x));  // exp(2x)
  return _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one));
}

inline __m256 gelu256(__m256 x) {
  const __m256 half = _mm256_set1_ps(0.5F);
  const __m256 one = _mm256_set1_ps(1.0F);
  const __m256 x2 = _mm256_mul_ps(x, x);
  const __m256 inner = _mm256_mul_ps(
      _mm256_set1_ps(kGeluC),
      _mm256_fmadd_ps(_mm256_mul_ps(_mm256_set1_ps(kGeluA), x2), x, x));
  const __m256 t = tanh256(inner);
  return _mm256_mul_ps(_mm256_mul_ps(half, x), _mm256_add_ps(one, t));
}

inline __m256 gelu_grad256(__m256 x) {
  const __m256 half = _mm256_set1_ps(0.5F);
  const __m256 one = _mm256_set1_ps(1.0F);
  const __m256 x2 = _mm256_mul_ps(x, x);
  const __m256 inner = _mm256_mul_ps(
      _mm256_set1_ps(kGeluC),
      _mm256_fmadd_ps(_mm256_mul_ps(_mm256_set1_ps(kGeluA), x2), x, x));
  const __m256 t = tanh256(inner);
  // dt/dx = (1 - t^2) * kC * (1 + 3 kA x^2)
  const __m256 sech2 = _mm256_fnmadd_ps(t, t, one);
  const __m256 dinner = _mm256_fmadd_ps(
      _mm256_set1_ps(3.0F * kGeluA), x2, one);
  const __m256 dt =
      _mm256_mul_ps(_mm256_mul_ps(sech2, _mm256_set1_ps(kGeluC)), dinner);
  // 0.5 (1 + t) + 0.5 x dt
  return _mm256_fmadd_ps(_mm256_mul_ps(half, x), dt,
                         _mm256_mul_ps(half, _mm256_add_ps(one, t)));
}

// Horizontal sum of a 4-lane double accumulator.
inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s2 = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s2, _mm_unpackhi_pd(s2, s2)));
}

// Accumulates the 8 floats in `v` into a 4-lane double accumulator.
inline __m256d acc_pd(__m256d acc, __m256 v) {
  acc = _mm256_add_pd(acc, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
  return _mm256_add_pd(acc, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
}

void tile_add(const float* x, const float* t, float* out, std::int64_t blocks,
              std::int64_t m) {
  for (std::int64_t b = 0; b < blocks; ++b) {
    const float* xb = x + b * m;
    float* ob = out + b * m;
    std::int64_t j = 0;
    for (; j + 8 <= m; j += 8) {
      _mm256_storeu_ps(ob + j, _mm256_add_ps(_mm256_loadu_ps(xb + j),
                                             _mm256_loadu_ps(t + j)));
    }
    for (; j < m; ++j) ob[j] = xb[j] + t[j];
  }
}

void tile_add_bwd(const float* g, float* gt, std::int64_t blocks,
                  std::int64_t m) {
  for (std::int64_t b = 0; b < blocks; ++b) {
    const float* gb = g + b * m;
    std::int64_t j = 0;
    for (; j + 8 <= m; j += 8) {
      _mm256_storeu_ps(gt + j, _mm256_add_ps(_mm256_loadu_ps(gt + j),
                                             _mm256_loadu_ps(gb + j)));
    }
    for (; j < m; ++j) gt[j] += gb[j];
  }
}

void bias_gelu(const float* x, const float* t, float* y, std::int64_t blocks,
               std::int64_t m) {
  for (std::int64_t b = 0; b < blocks; ++b) {
    const float* xb = x + b * m;
    float* yb = y + b * m;
    std::int64_t j = 0;
    for (; j + 8 <= m; j += 8) {
      __m256 z = _mm256_loadu_ps(xb + j);
      if (t != nullptr) z = _mm256_add_ps(z, _mm256_loadu_ps(t + j));
      _mm256_storeu_ps(yb + j, gelu256(z));
    }
    for (; j < m; ++j) {
      yb[j] = gelu_fwd_ref(t == nullptr ? xb[j] : xb[j] + t[j]);
    }
  }
}

void bias_gelu_bwd(const float* x, const float* t, const float* g, float* dx,
                   float* dt, std::int64_t blocks, std::int64_t m) {
  for (std::int64_t b = 0; b < blocks; ++b) {
    const float* xb = x + b * m;
    const float* gb = g + b * m;
    float* dxb = dx == nullptr ? nullptr : dx + b * m;
    std::int64_t j = 0;
    for (; j + 8 <= m; j += 8) {
      __m256 z = _mm256_loadu_ps(xb + j);
      if (t != nullptr) z = _mm256_add_ps(z, _mm256_loadu_ps(t + j));
      const __m256 d = _mm256_mul_ps(gelu_grad256(z), _mm256_loadu_ps(gb + j));
      if (dxb != nullptr) {
        _mm256_storeu_ps(dxb + j, _mm256_add_ps(_mm256_loadu_ps(dxb + j), d));
      }
      if (dt != nullptr) {
        _mm256_storeu_ps(dt + j, _mm256_add_ps(_mm256_loadu_ps(dt + j), d));
      }
    }
    for (; j < m; ++j) {
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
    // Stage s = x (+ r) in y, accumulating the mean as we go.
    __m256d mu_acc = _mm256_setzero_pd();
    double mu = 0.0;
    std::int64_t c = 0;
    for (; c + 8 <= d; c += 8) {
      __m256 s = _mm256_loadu_ps(xr + c);
      if (rr != nullptr) s = _mm256_add_ps(s, _mm256_loadu_ps(rr + c));
      _mm256_storeu_ps(yr + c, s);
      mu_acc = acc_pd(mu_acc, s);
    }
    for (; c < d; ++c) {
      const float s = rr == nullptr ? xr[c] : xr[c] + rr[c];
      yr[c] = s;
      mu += s;
    }
    mu = (mu + hsum(mu_acc)) / static_cast<double>(d);

    __m256d var_acc = _mm256_setzero_pd();
    double var = 0.0;
    const __m256 mu_ps = _mm256_set1_ps(static_cast<float>(mu));
    c = 0;
    for (; c + 8 <= d; c += 8) {
      // Match the scalar path's double-precision (s - mu)^2 accumulation.
      const __m256 s = _mm256_loadu_ps(yr + c);
      const __m256d dl = _mm256_sub_pd(
          _mm256_cvtps_pd(_mm256_castps256_ps128(s)), _mm256_set1_pd(mu));
      const __m256d dh = _mm256_sub_pd(
          _mm256_cvtps_pd(_mm256_extractf128_ps(s, 1)), _mm256_set1_pd(mu));
      var_acc = _mm256_fmadd_pd(dl, dl, var_acc);
      var_acc = _mm256_fmadd_pd(dh, dh, var_acc);
    }
    for (; c < d; ++c) {
      const double diff = yr[c] - mu;
      var += diff * diff;
    }
    var = (var + hsum(var_acc)) / static_cast<double>(d);
    const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
    if (inv_std != nullptr) inv_std[row] = istd;

    float* xh_row = xhat == nullptr ? nullptr : xhat + row * d;
    const __m256 istd_ps = _mm256_set1_ps(istd);
    c = 0;
    for (; c + 8 <= d; c += 8) {
      const __m256 xh = _mm256_mul_ps(
          _mm256_sub_ps(_mm256_loadu_ps(yr + c), mu_ps), istd_ps);
      if (xh_row != nullptr) _mm256_storeu_ps(xh_row + c, xh);
      _mm256_storeu_ps(yr + c, _mm256_fmadd_ps(_mm256_loadu_ps(gamma + c), xh,
                                               _mm256_loadu_ps(beta + c)));
    }
    for (; c < d; ++c) {
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
      std::int64_t c = 0;
      for (; c + 8 <= d; c += 8) {
        const __m256 gv = _mm256_loadu_ps(grow + c);
        if (ggamma != nullptr) {
          _mm256_storeu_ps(ggamma + c,
                           _mm256_fmadd_ps(gv, _mm256_loadu_ps(xh + c),
                                           _mm256_loadu_ps(ggamma + c)));
        }
        if (gbeta != nullptr) {
          _mm256_storeu_ps(gbeta + c,
                           _mm256_add_ps(_mm256_loadu_ps(gbeta + c), gv));
        }
      }
      for (; c < d; ++c) {
        if (ggamma != nullptr) ggamma[c] += grow[c] * xh[c];
        if (gbeta != nullptr) gbeta[c] += grow[c];
      }
    }
    if (gx != nullptr || gr != nullptr) {
      __m256d h_acc = _mm256_setzero_pd();
      __m256d hx_acc = _mm256_setzero_pd();
      double mean_h = 0.0;
      double mean_hx = 0.0;
      std::int64_t c = 0;
      for (; c + 8 <= d; c += 8) {
        const __m256 h = _mm256_mul_ps(_mm256_loadu_ps(gamma + c),
                                       _mm256_loadu_ps(grow + c));
        h_acc = acc_pd(h_acc, h);
        hx_acc = acc_pd(hx_acc, _mm256_mul_ps(h, _mm256_loadu_ps(xh + c)));
      }
      for (; c < d; ++c) {
        const double h = double(gamma[c]) * grow[c];
        mean_h += h;
        mean_hx += h * xh[c];
      }
      mean_h = (mean_h + hsum(h_acc)) / static_cast<double>(d);
      mean_hx = (mean_hx + hsum(hx_acc)) / static_cast<double>(d);

      float* gxr = gx == nullptr ? nullptr : gx + row * d;
      float* grr = gr == nullptr ? nullptr : gr + row * d;
      const __m256 mean_h_ps = _mm256_set1_ps(static_cast<float>(mean_h));
      const __m256 mean_hx_ps = _mm256_set1_ps(static_cast<float>(mean_hx));
      const __m256 istd_ps = _mm256_set1_ps(istd);
      c = 0;
      for (; c + 8 <= d; c += 8) {
        const __m256 h = _mm256_mul_ps(_mm256_loadu_ps(gamma + c),
                                       _mm256_loadu_ps(grow + c));
        const __m256 inner = _mm256_fnmadd_ps(
            _mm256_loadu_ps(xh + c), mean_hx_ps, _mm256_sub_ps(h, mean_h_ps));
        const __m256 dxv = _mm256_mul_ps(istd_ps, inner);
        if (gxr != nullptr) {
          _mm256_storeu_ps(gxr + c,
                           _mm256_add_ps(_mm256_loadu_ps(gxr + c), dxv));
        }
        if (grr != nullptr) {
          _mm256_storeu_ps(grr + c,
                           _mm256_add_ps(_mm256_loadu_ps(grr + c), dxv));
        }
      }
      for (; c < d; ++c) {
        const double h = double(gamma[c]) * grow[c];
        const float dxc =
            static_cast<float>(istd * (h - mean_h - xh[c] * mean_hx));
        if (gxr != nullptr) gxr[c] += dxc;
        if (grr != nullptr) grr[c] += dxc;
      }
    }
  }
}

// sigmoid(x) = 1 / (1 + exp(-x)). exp256's +/-87 clamp keeps the
// denominator finite, so large positive lanes saturate to exactly 1 like
// the scalar reference, and large negative ones (-inf included) to
// 1 / (1 + e^87), about 1.6e-38, where the scalar reaches 0 once exp(-x)
// overflows. A NaN lane gives NaN, through exp256.
inline __m256 sigmoid256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0F);
  const __m256 e = exp256(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

void gru_cell(const float* gi, std::int64_t gi_stride, const float* gh,
              const float* h, float* out, float* rzn, std::int64_t batch,
              std::int64_t hidden) {
  const __m256 one = _mm256_set1_ps(1.0F);
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* gib = gi + b * gi_stride;
    const float* ghb = gh + b * 3 * hidden;
    const float* hb = h + b * hidden;
    float* ob = out + b * hidden;
    float* rznb = rzn == nullptr ? nullptr : rzn + b * 3 * hidden;
    std::int64_t j = 0;
    for (; j + 8 <= hidden; j += 8) {
      const __m256 r = sigmoid256(
          _mm256_add_ps(_mm256_loadu_ps(gib + j), _mm256_loadu_ps(ghb + j)));
      const __m256 z = sigmoid256(
          _mm256_add_ps(_mm256_loadu_ps(gib + hidden + j),
                        _mm256_loadu_ps(ghb + hidden + j)));
      const __m256 n = tanh256(
          _mm256_fmadd_ps(r, _mm256_loadu_ps(ghb + 2 * hidden + j),
                          _mm256_loadu_ps(gib + 2 * hidden + j)));
      if (rznb != nullptr) {
        _mm256_storeu_ps(rznb + j, r);
        _mm256_storeu_ps(rznb + hidden + j, z);
        _mm256_storeu_ps(rznb + 2 * hidden + j, n);
      }
      const __m256 omz = _mm256_sub_ps(one, z);
      _mm256_storeu_ps(
          ob + j, _mm256_fmadd_ps(omz, n,
                                  _mm256_mul_ps(z, _mm256_loadu_ps(hb + j))));
    }
    for (; j < hidden; ++j) {
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
  const __m256 one = _mm256_set1_ps(1.0F);
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* rznb = rzn + b * 3 * hidden;
    const float* ghb = gh + b * 3 * hidden;
    const float* hb = h + b * hidden;
    const float* gb = g + b * hidden;
    float* dgib = dgi == nullptr ? nullptr : dgi + b * gi_stride;
    float* dghb = dgh == nullptr ? nullptr : dgh + b * 3 * hidden;
    float* dhb = dh == nullptr ? nullptr : dh + b * hidden;
    std::int64_t j = 0;
    for (; j + 8 <= hidden; j += 8) {
      const __m256 r = _mm256_loadu_ps(rznb + j);
      const __m256 z = _mm256_loadu_ps(rznb + hidden + j);
      const __m256 n = _mm256_loadu_ps(rznb + 2 * hidden + j);
      const __m256 gv = _mm256_loadu_ps(gb + j);
      const __m256 omz = _mm256_sub_ps(one, z);
      // gz = g*h - g*n; gn = g*(1-z); ga3 = gn*(1-n^2)
      const __m256 gz = _mm256_fmsub_ps(gv, _mm256_loadu_ps(hb + j),
                                        _mm256_mul_ps(gv, n));
      const __m256 gn = _mm256_mul_ps(gv, omz);
      const __m256 ga3 = _mm256_mul_ps(gn, _mm256_fnmadd_ps(n, n, one));
      const __m256 gr =
          _mm256_mul_ps(ga3, _mm256_loadu_ps(ghb + 2 * hidden + j));
      const __m256 dghn = _mm256_mul_ps(ga3, r);
      const __m256 ga2 = _mm256_mul_ps(_mm256_mul_ps(gz, z),
                                       _mm256_sub_ps(one, z));
      const __m256 ga1 = _mm256_mul_ps(_mm256_mul_ps(gr, r),
                                       _mm256_sub_ps(one, r));
      const auto acc = [](float* p, __m256 v) {
        _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), v));
      };
      if (dgib != nullptr) {
        acc(dgib + j, ga1);
        acc(dgib + hidden + j, ga2);
        acc(dgib + 2 * hidden + j, ga3);
      }
      if (dghb != nullptr) {
        acc(dghb + j, ga1);
        acc(dghb + hidden + j, ga2);
        acc(dghb + 2 * hidden + j, dghn);
      }
      if (dhb != nullptr) acc(dhb + j, _mm256_mul_ps(gv, z));
    }
    for (; j < hidden; ++j) {
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
  const __m256 inv = _mm256_set1_ps(inv_scale);
  const __m256 lo = _mm256_set1_ps(static_cast<float>(-qmax));
  const __m256 hi = _mm256_set1_ps(static_cast<float>(qmax));
  const __m256i z8 = _mm256_set1_epi32(zero);
  for (std::int64_t b = 0; b < blocks; ++b) {
    const float* xb = x + b * m;
    std::uint8_t* ob = out + b * out_stride;
    std::int64_t j = 0;
    for (; j + 8 <= m; j += 8) {
      __m256 act = _mm256_loadu_ps(xb + j);
      if (t != nullptr) act = _mm256_add_ps(act, _mm256_loadu_ps(t + j));
      if (gelu) act = gelu256(act);
      // quantize_code lane-wise: NaN lanes zeroed (the ordered self-compare
      // is false only for NaN), a float clamp (cvtps of a value past the
      // int32 range would give INT32_MIN), then cvtps, which rounds to
      // nearest-even like lrintf. The clamp bounds the values before the
      // +zero offset, so the two 128-bit unsigned-saturating packs below can
      // never themselves saturate.
      __m256 v = _mm256_mul_ps(act, inv);
      v = _mm256_and_ps(v, _mm256_cmp_ps(v, v, _CMP_ORD_Q));
      v = _mm256_min_ps(_mm256_max_ps(v, lo), hi);
      const __m256i q = _mm256_add_epi32(_mm256_cvtps_epi32(v), z8);
      const __m128i q16 = _mm_packus_epi32(_mm256_castsi256_si128(q),
                                           _mm256_extracti128_si256(q, 1));
      _mm_storel_epi64(reinterpret_cast<__m128i*>(ob + j),
                       _mm_packus_epi16(q16, q16));
    }
    for (; j < m; ++j) {
      float act = t == nullptr ? xb[j] : xb[j] + t[j];
      if (gelu) act = gelu_fwd_ref(act);
      ob[j] = static_cast<std::uint8_t>(
          quantize_code(act * inv_scale, qmax) + zero);
    }
    for (; j < out_stride; ++j) ob[j] = 0;
  }
}

// Acc xyz + gyro xyz: every stream window (stream::kStreamChannels) and
// every 6-axis recording.
constexpr std::int64_t kSixAxis = 6;

// Block average specialised for 6 channels, two output rows at a time: their
// 12 values sit in three 4-lane double accumulators, [r0 c0-3],
// [r0 c4-5 | r1 c0-1] and [r1 c2-5]. Each lane runs the scalar body's
// operations in its order — a double sum from +0.0 adding k = 0 .. factor-1,
// the division by double(factor), the rounding to float, then the float
// multiply by acc_scale (by 1.0F, an identity, on the other channels) — so
// the result is bit-identical to the scalar kernel's. Other channel counts,
// factor 1 and an odd last row go through the scalar body.
void block_average(const float* in, std::int64_t out_length,
                   std::int64_t channels, std::int64_t factor,
                   std::int64_t acc_axes, float acc_scale, float* out) {
  const auto scalar = scalar_kernels().block_average;
  if (channels != kSixAxis || factor == 1) {
    scalar(in, out_length, channels, factor, acc_axes, acc_scale, out);
    return;
  }
  alignas(16) float scale[2 * kSixAxis];
  for (std::int64_t i = 0; i < 2 * kSixAxis; ++i) {
    scale[i] = i % kSixAxis < acc_axes ? acc_scale : 1.0F;
  }
  const __m128 scale0 = _mm_load_ps(scale);
  const __m128 scale1 = _mm_load_ps(scale + 4);
  const __m128 scale2 = _mm_load_ps(scale + 8);
  const __m256d divisor = _mm256_set1_pd(static_cast<double>(factor));
  const std::int64_t row_stride = factor * kSixAxis;
  std::int64_t t = 0;
  for (; t + 2 <= out_length;
       t += 2, in += 2 * row_stride, out += 2 * kSixAxis) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    const float* p0 = in;               // row t, sample k
    const float* p1 = in + row_stride;  // row t + 1, sample k
    for (std::int64_t k = 0; k < factor; ++k, p0 += kSixAxis, p1 += kSixAxis) {
      // c4-5 of row t and c0-1 of row t + 1: two 8-byte loads, no over-read.
      const __m128 mid = _mm_loadh_pi(
          _mm_castsi128_ps(
              _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p0 + 4))),
          reinterpret_cast<const __m64*>(p1));
      acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm_loadu_ps(p0)));
      acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(mid));
      acc2 = _mm256_add_pd(acc2, _mm256_cvtps_pd(_mm_loadu_ps(p1 + 2)));
    }
    _mm_storeu_ps(out, _mm_mul_ps(_mm256_cvtpd_ps(_mm256_div_pd(acc0, divisor)),
                                  scale0));
    _mm_storeu_ps(out + 4,
                  _mm_mul_ps(_mm256_cvtpd_ps(_mm256_div_pd(acc1, divisor)),
                             scale1));
    _mm_storeu_ps(out + 8,
                  _mm_mul_ps(_mm256_cvtpd_ps(_mm256_div_pd(acc2, divisor)),
                             scale2));
  }
  if (t < out_length) scalar(in, 1, kSixAxis, factor, acc_axes, acc_scale, out);
}

constexpr Kernels kAvx2Kernels{tile_add,      tile_add_bwd,  bias_gelu,
                               bias_gelu_bwd, layer_norm,    layer_norm_bwd,
                               gru_cell,      gru_cell_bwd,  bias_act_quant,
                               block_average};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2Kernels; }

}  // namespace saga::eltwise::detail

#else  // build without AVX2 support for this file

namespace saga::eltwise::detail {

const Kernels* avx2_kernels() { return nullptr; }

}  // namespace saga::eltwise::detail

#endif
