// Internal contract between the eltwise driver and its kernels. Not part of
// the public API — include only from src/tensor/eltwise/*.cpp.
//
// All kernels run single-threaded over contiguous storage and are
// deterministic: for a fixed kernel, repeated runs produce bit-identical
// results (there is no thread-count or tile-position dependence to worry
// about — unlike GEMM, every loop here is a plain serial sweep).
//
// Tiled views: the bias/positional kernels treat the input as
// [blocks, m] row-major, where the tile pointer `t` has length m and is
// broadcast across blocks (bias add: m = D, blocks = rows; positional add:
// m = T*H, blocks = B). The layer-norm kernels use an explicit [rows, d]
// view. `blocks`/`rows` of zero are valid no-ops.
//
// The scalar kernel is the semantic reference: it performs exactly the same
// per-element arithmetic, in the same order, as the composed ops it fuses
// (broadcast add, add + gelu, add + layer norm, the GRU gate chain), so
// forced-scalar fused results are bit-identical to the composed references
// in tests/reference.hpp. The AVX2 kernel agrees with it only to rounding
// (vectorized exp/tanh and lane-split reductions), mirroring the gemm kernel
// contract; block_average is bit-identical on every kernel.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace saga::eltwise::detail {

/// One activation's signed int8 code: v clamped to [-qmax, qmax] in float,
/// then rounded to nearest-even (lrintf; the AVX2 body's cvtps rounds the
/// same way). Clamping first keeps values past the int32 range, ±Inf
/// included, on the saturated code; NaN maps to 0. The scalar kernel uses
/// this for every element, the AVX2 kernel for its tail columns.
inline std::int32_t quantize_code(float v, std::int32_t qmax) {
  if (std::isnan(v)) return 0;
  const auto limit = static_cast<float>(qmax);
  return static_cast<std::int32_t>(std::lrintf(std::clamp(v, -limit, limit)));
}

struct Kernels {
  /// out[b*m + j] = x[b*m + j] + t[j]
  void (*tile_add)(const float* x, const float* t, float* out,
                   std::int64_t blocks, std::int64_t m);
  /// gt[j] += sum_b g[b*m + j]  (tile gradient of tile_add)
  void (*tile_add_bwd)(const float* g, float* gt, std::int64_t blocks,
                       std::int64_t m);
  /// y[i] = gelu(x[i] + t[i % m]) with the tanh approximation; `t` may be
  /// nullptr for plain fused GELU (then m is just a chunk length).
  void (*bias_gelu)(const float* x, const float* t, float* y,
                    std::int64_t blocks, std::int64_t m);
  /// Recomputes z = x + t and accumulates dgelu(z) * g into dx (when
  /// non-null) and its per-tile column sums into dt (when non-null).
  void (*bias_gelu_bwd)(const float* x, const float* t, const float* g,
                        float* dx, float* dt, std::int64_t blocks,
                        std::int64_t m);
  /// Row-wise layer norm of s = x (+ r when r != nullptr) over [rows, d]:
  /// y = gamma * (s - mean) * inv_std + beta. When xhat/inv_std are
  /// non-null (tape active), the normalized rows and per-row inverse
  /// stddevs are saved for backward; the y arithmetic is identical either
  /// way.
  void (*layer_norm)(const float* x, const float* r, const float* gamma,
                     const float* beta, float eps, float* y, float* xhat,
                     float* inv_std, std::int64_t rows, std::int64_t d);
  /// Backward from saved xhat/inv_std. Accumulates the input gradient into
  /// gx and gr (both nullable; they receive the same addition — the
  /// residual branch of the sum has derivative 1), and gamma/beta grads
  /// into ggamma/gbeta (nullable).
  void (*layer_norm_bwd)(const float* xhat, const float* inv_std,
                         const float* gamma, const float* g, float* gx,
                         float* gr, float* ggamma, float* gbeta,
                         std::int64_t rows, std::int64_t d);
  /// Fused GRU cell over a batch: gate pre-activations gi (input side, row b
  /// at gi + b*gi_stride — may be a row-strided view of a [B,T,3H] buffer)
  /// and gh (hidden side, dense [B, 3H]), both packed [r | z | n]; h is the
  /// previous state [B, H]. Writes the new state into out [B, H]. When rzn
  /// is non-null (tape active) the gate activations r/z/n are saved there
  /// ([B, 3H], same packing) for backward; the out arithmetic is identical
  /// either way. The scalar kernel's per-element order matches the composed
  /// gate chain bit-exactly (see gru_math.hpp).
  void (*gru_cell)(const float* gi, std::int64_t gi_stride, const float* gh,
                   const float* h, float* out, float* rzn, std::int64_t batch,
                   std::int64_t hidden);
  /// Backward from saved rzn. Accumulates gate-preactivation gradients into
  /// dgi (row-strided by gi_stride, nullable) and dgh (dense, nullable), and
  /// the previous-state gradient into dh (nullable). g is the upstream
  /// gradient [B, H]; gh/h are the forward's inputs (gh_n and h are needed
  /// to reconstruct the chain).
  void (*gru_cell_bwd)(const float* rzn, const float* gh, const float* h,
                       const float* g, float* dgi, std::int64_t gi_stride,
                       float* dgh, float* dh, std::int64_t batch,
                       std::int64_t hidden);
  /// Fused bias add (+ optional GELU) + activation quantize, the int8 serve
  /// path's inter-layer epilogue (fwd-only; int8 runs under NoGrad). Over the
  /// [blocks, m] tiled view: act = x + t (t nullable, as bias_gelu), then
  /// gelu(act) when `gelu`, then u8 code quantize_code(act * inv_scale,
  /// qmax) + zero into out[b * out_stride + j]. out_stride >= m; columns
  /// m..out_stride-1 of each row are zero-filled (the int8 GEMM's k-group
  /// padding). The add variant performs the same IEEE add/mul/clamp/rint as
  /// bias_add followed by the reference quantize (tests/reference.hpp), with
  /// no contractible FMA shape, so scalar and AVX2 agree bit-for-bit on
  /// every value, NaN and ±Inf included; the gelu variant matches its OWN
  /// kernel's bias_gelu-then-quantize composition (AVX2 gelu differs from
  /// scalar in low bits, exactly as bias_gelu documents).
  void (*bias_act_quant)(const float* x, const float* t, bool gelu,
                         float inv_scale, std::int32_t zero, std::int32_t qmax,
                         std::uint8_t* out, std::int64_t out_stride,
                         std::int64_t blocks, std::int64_t m);
  /// Block-average down-sampling (data::preprocess_window, downsample):
  /// output row t, channel c of the [out_length, channels] result is
  /// float(sum over k < factor of in[(t * factor + k) * channels + c] /
  /// double(factor)), the sum a double accumulated from 0.0 in k order; the
  /// row's first acc_axes values are then multiplied by acc_scale in float.
  /// Factor 1 copies instead (accumulating would turn -0.0 into +0.0). Every
  /// kernel is bit-identical to the scalar one: the AVX2 body runs the same
  /// IEEE operations in the same order per lane.
  void (*block_average)(const float* in, std::int64_t out_length,
                        std::int64_t channels, std::int64_t factor,
                        std::int64_t acc_axes, float acc_scale, float* out);
};

/// Portable reference kernels; always available.
const Kernels& scalar_kernels();

/// AVX2+FMA kernels, or nullptr when this translation unit was built
/// without AVX2 support (the driver must also check CPUID before use).
const Kernels* avx2_kernels();

}  // namespace saga::eltwise::detail
