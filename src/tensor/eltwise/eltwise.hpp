// saga::eltwise — the fused elementwise engine behind the nn/model hot
// paths: tiled bias adds (a [D] bias, or the [T, H] positional embedding),
// bias+GELU, residual+layer-norm and the GRU cell, each with forward and
// backward, plus the int8 path's bias+quantize epilogue and the block
// average that down-samples every raw window (data/preprocess).
//
// Why a unit of its own: after the GEMM rewrite, roughly half of backbone
// forward time sat in composed elementwise chains — every `add(y, bias)`
// walked the generic broadcast odometer, every gelu/layer-norm was an extra
// full pass plus an intermediate tensor, and every op allocated autograd
// bookkeeping even under NoGrad. The fused ops here do one contiguous sweep
// per chain, participate in the shared grad-mode-aware `detail::make_result`
// construction (zero tape nodes under NoGrad), and dispatch at runtime to an
// AVX2+FMA kernel (vectorized exp/tanh for GELU) with the portable scalar
// kernel retained — the same pattern as src/tensor/gemm/.
//
// Numerics contract: for a fixed kernel, results are bit-identical across
// runs and independent of grad mode (the tape only adds saved state, never
// changes forward arithmetic). The scalar kernel performs exactly the
// composed ops' per-element arithmetic, so forced-scalar fused results are
// bit-identical to the composed references in tests/reference.hpp (layer
// norm, GRU gate chain, activation quantize) and to saga::add; the AVX2
// kernel agrees to rounding (like gemm's kernels); the block average is
// bit-identical on every kernel. SAGA_FORCE_SCALAR=1 pins dispatch to scalar
// (read once per process).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/dispatch.hpp"

namespace saga::eltwise {

/// Kernel selector. kAuto resolves at runtime (util/dispatch.hpp): AVX2+FMA
/// when the CPU and build support it and SAGA_FORCE_SCALAR is unset, else
/// scalar.
enum class Kernel { kAuto, kScalar, kAvx2 };

/// Kernels dispatchable on this host, scalar first, honoring
/// SAGA_FORCE_SCALAR; test harnesses iterate this list.
std::vector<Kernel> available_kernels();

/// Human-readable kernel name, with kAuto resolved to the dispatcher's pick.
std::string kernel_name(Kernel kernel = Kernel::kAuto);

/// RAII guard pinning this thread's dispatch to one kernel (util::KernelPin)
/// — for tests and benches that compare kernels. Throws std::runtime_error
/// if `kernel` is not available on this host. Nestable; restores the
/// previous pin.
class ForceKernelGuard {
 public:
  explicit ForceKernelGuard(Kernel kernel);

 private:
  util::KernelPin<Kernel> pin_;
};

// ---- fused ops (autograd-aware, drop-in for their composed chains) -------

/// y = x + tile, where tile's shape is a suffix of x's shape and is
/// repeated across the leading dimensions: a [D] bias over the rows of a
/// Linear output, or the positional [T, H] embedding over [B, T, H]
/// activations. Replaces `add(x, tile)`'s generic broadcast odometer with
/// one contiguous sweep, bit-identical to it.
Tensor bias_add(const Tensor& x, const Tensor& tile);

/// y = gelu(x + bias) in one pass, with the tanh approximation BERT-family
/// models use. `bias` may be an undefined Tensor for plain GELU.
Tensor bias_gelu(const Tensor& x, const Tensor& bias);

/// y = layer_norm(x + residual) over the last dimension with learned
/// gamma/beta — the transformer's residual join and norm in one sweep.
/// `residual` may be an undefined Tensor for plain layer norm (the
/// nn::LayerNorm fast path); its shape must equal x's otherwise.
Tensor residual_layer_norm(const Tensor& x, const Tensor& residual,
                           const Tensor& gamma, const Tensor& beta,
                           float eps = 1e-5F);

/// Fused GRU cell: h' = (1 - z) * n + z * h with r/z/n computed from the
/// packed [r | z | n] gate pre-activations gi ([B, 3H], input side — may be
/// a row-strided view, e.g. one timestep selected from a [B, T, 3H] buffer;
/// consumed without copying) and gh ([B, 3H], hidden side), and previous
/// state h ([B, H]). Replaces the composed sigmoid/tanh/mul/add gate chain
/// with one sweep; under the forced-scalar kernel the result (fwd and bwd)
/// is bit-identical to the composed chain.
Tensor gru_cell(const Tensor& gi, const Tensor& gh, const Tensor& h);

/// Fused bias add (+ optional GELU) + activation quantize over a [rows, d]
/// fp32 buffer, emitting the unsigned codes the int8 GEMM consumes:
///   out[i*out_stride + j] = rint(clamp((x[i*d+j] + bias[j]) / act_scale
///                                after optional gelu, -act_max, act_max))
///                           + act_zero
/// The clamp runs in float before rounding, so values past the code range
/// (±Inf included) saturate to ±act_max; NaN takes code act_zero (the
/// value 0). Every kernel and column gives the same code for the same value.
/// `bias` may be nullptr (pure quantize — the entry sweep of the int8 path);
/// out_stride >= d, with columns d..out_stride-1 zero-filled so rows can be
/// written straight into k-group-padded GEMM input. Pointer-level and
/// fwd-only: this is saga::quant's inter-layer epilogue, one sweep in place
/// of a bias_add/bias_gelu pass plus a separate quantize pass.
void bias_act_quantize(const float* x, const float* bias, std::int64_t rows,
                       std::int64_t d, bool gelu, float act_scale,
                       std::int32_t act_zero, std::int32_t act_max,
                       std::uint8_t* out, std::int64_t out_stride);

/// Block-average down-sampling, the arithmetic of data::preprocess_window
/// and data::downsample: `in` is [out_length * factor, channels] row-major,
/// `out` receives [out_length, channels] where value (t, c) is
/// float(sum over k < factor of in[t * factor + k][c] / double(factor)), the
/// sum a double accumulated from 0.0 in k order, and the first `acc_axes`
/// values of each row are then multiplied by `acc_scale` in float. Factor 1
/// copies (keeping -0.0). Every kernel gives the scalar kernel's bits.
/// Pointer-level and fwd-only; throws std::invalid_argument unless
/// channels >= 1, factor >= 1 and 0 <= acc_axes <= channels.
void block_average(const float* in, std::int64_t out_length,
                   std::int64_t channels, std::int64_t factor,
                   std::int64_t acc_axes, float acc_scale, float* out);

}  // namespace saga::eltwise
