#include "quant/qlinear.hpp"

#include <set>
#include <stdexcept>
#include <string>

#include "nn/gru.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "tensor/eltwise/eltwise.hpp"
#include "tensor/tensor.hpp"
#include "tensor/shape_ops.hpp"

namespace saga::quant {

namespace {

constexpr std::int64_t kKU = 4;  // gemm_s8's k-group depth (A row padding)

std::int64_t pad_k(std::int64_t k) { return (k + kKU - 1) / kKU * kKU; }

void grow(std::vector<std::uint8_t>& v, std::int64_t n) {
  if (static_cast<std::int64_t>(v.size()) < n) {
    v.resize(static_cast<std::size_t>(n));
  }
}

void grow(std::vector<std::int32_t>& v, std::int64_t n) {
  if (static_cast<std::int64_t>(v.size()) < n) {
    v.resize(static_cast<std::size_t>(n));
  }
}

// Quantize m rows of fp32 into q's input encoding, padded to the k-group
// depth (one fused eltwise sweep with no bias, plus pad zero-fill).
void quantize_rows(const float* src, std::int64_t m, const LinearQuant& q,
                   std::uint8_t* dst, std::int64_t k_padded) {
  eltwise::bias_act_quantize(src, nullptr, m, q.in, /*gelu=*/false,
                             q.act_scale, q.act_zero, q.act_max, dst,
                             k_padded);
}

// Dequantizing epilogue: undo the unsigned activation offset via the packed
// column sums, then apply the folded act*weight scale.
void dequant_rows(const std::int32_t* acc, std::int64_t m,
                  const LinearQuant& q, float* y) {
  const std::int64_t n = q.out;
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int32_t* arow = acc + i * n;
    float* yrow = y + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const auto u = static_cast<std::size_t>(j);
      yrow[j] = static_cast<float>(arow[j] - q.zero_correction[u]) *
                q.dequant_scales[u];
    }
  }
}

}  // namespace

LinearQuant prepare(const QuantBlob& blob, ActEncoding encoding) {
  if (blob.rows <= 0 || blob.cols <= 0 ||
      blob.values.size() != static_cast<std::size_t>(blob.rows * blob.cols) ||
      blob.scales.size() != static_cast<std::size_t>(blob.cols)) {
    throw std::invalid_argument("quant::prepare: malformed QuantBlob");
  }
  if (!(blob.act_scale > 0.0F)) {
    throw std::invalid_argument(
        "quant::prepare: act_scale is not calibrated (must be > 0)");
  }
  LinearQuant q;
  q.in = blob.rows;
  q.out = blob.cols;
  q.encoding = encoding;
  q.act_max = act_max(encoding);
  q.act_zero = act_zero(encoding);
  // blob.act_scale is canonically 7-bit (absmax / 63); recover the
  // calibrated absmax and rescale for the selected encoding. The 7-bit case
  // reproduces blob.act_scale exactly (same absmax, same divisor).
  const float absmax = blob.act_scale * static_cast<float>(kActMax);
  q.act_scale = activation_scale(absmax, encoding);
  q.packed = gemm::pack_b8(blob.values.data(), blob.rows, blob.cols);
  q.dequant_scales.resize(static_cast<std::size_t>(blob.cols));
  q.zero_correction.resize(static_cast<std::size_t>(blob.cols));
  for (std::int64_t n = 0; n < blob.cols; ++n) {
    const auto i = static_cast<std::size_t>(n);
    q.dequant_scales[i] = q.act_scale * blob.scales[i];
    q.zero_correction[i] = q.act_zero * q.packed.col_sums[i];
  }
  return q;
}

LinearQuant prepare(const QuantBlob& blob) {
  return prepare(blob, preferred_act_encoding());
}

Tensor linear_forward(const Tensor& x, const LinearQuant& q) {
  if (x.dim() != 2 || x.size(1) != q.in) {
    throw std::invalid_argument(
        "quant::linear_forward: expected [M, " + std::to_string(q.in) +
        "] input");
  }
  const Tensor flat = x.is_contiguous() ? x : contiguous(x);
  const std::int64_t m = flat.size(0);
  const std::int64_t n = q.out;
  const std::int64_t k_padded = pad_k(q.in);

  // Per-thread scratch: quantized activations (rows padded to the k-group
  // depth so the SIMD kernels can read whole 4-byte quads) and the raw s32
  // accumulators. linear_forward runs on the calling thread; gemm_s8's pool
  // workers only read a_q.
  thread_local std::vector<std::uint8_t> a_q;
  thread_local std::vector<std::int32_t> acc;
  grow(a_q, m * k_padded);
  grow(acc, m * n);
  quantize_rows(flat.data().data(), m, q, a_q.data(), k_padded);

  gemm::gemm_s8(a_q.data(), k_padded, q.packed, acc.data(), n, m);

  // Bias joins in the caller's fused eltwise pass.
  std::vector<float> y(static_cast<std::size_t>(m * n));
  dequant_rows(acc.data(), m, q, y.data());
  return Tensor::from_data({m, n}, std::move(y), false);
}

Tensor linear_chain_forward(const Tensor& x, const LinearQuant& q1,
                            const Tensor& bias1, bool gelu,
                            const LinearQuant& q2) {
  if (x.dim() != 2 || x.size(1) != q1.in) {
    throw std::invalid_argument(
        "quant::linear_chain_forward: expected [M, " + std::to_string(q1.in) +
        "] input");
  }
  if (q2.in != q1.out) {
    throw std::invalid_argument(
        "quant::linear_chain_forward: layer shapes do not chain (" +
        std::to_string(q1.out) + " -> " + std::to_string(q2.in) + ")");
  }
  if (bias1.dim() != 1 || bias1.numel() != q1.out) {
    throw std::invalid_argument(
        "quant::linear_chain_forward: bias1 must be [" +
        std::to_string(q1.out) + "]");
  }
  const Tensor flat = x.is_contiguous() ? x : contiguous(x);
  const Tensor b1 = bias1.is_contiguous() ? bias1 : contiguous(bias1);
  const std::int64_t m = flat.size(0);
  const std::int64_t n1 = q1.out;
  const std::int64_t n2 = q2.out;
  const std::int64_t k1_padded = pad_k(q1.in);
  const std::int64_t k2_padded = pad_k(q2.in);

  thread_local std::vector<std::uint8_t> a1;
  thread_local std::vector<std::int32_t> acc1;
  thread_local std::vector<float> f1;
  thread_local std::vector<std::uint8_t> a2;
  thread_local std::vector<std::int32_t> acc2;
  grow(a1, m * k1_padded);
  grow(acc1, m * n1);
  if (static_cast<std::int64_t>(f1.size()) < m * n1) {
    f1.resize(static_cast<std::size_t>(m * n1));
  }
  grow(a2, m * k2_padded);
  grow(acc2, m * n2);

  quantize_rows(flat.data().data(), m, q1, a1.data(), k1_padded);
  gemm::gemm_s8(a1.data(), k1_padded, q1.packed, acc1.data(), n1, m);
  dequant_rows(acc1.data(), m, q1, f1.data());

  // The fused inter-layer epilogue: bias + optional gelu + re-quantize into
  // layer 2's padded GEMM input, one sweep instead of an eltwise pass plus a
  // standalone quantize (and no fp32 intermediate tensor).
  eltwise::bias_act_quantize(f1.data(), b1.data().data(), m, n1, gelu,
                             q2.act_scale, q2.act_zero, q2.act_max, a2.data(),
                             k2_padded);
  gemm::gemm_s8(a2.data(), k2_padded, q2.packed, acc2.data(), n2, m);

  std::vector<float> y(static_cast<std::size_t>(m * n2));
  dequant_rows(acc2.data(), m, q2, y.data());
  return Tensor::from_data({m, n2}, std::move(y), false);
}

void attach(nn::Module& root, const QuantState& state) {
  std::set<std::string> consumed;
  const auto take = [&](const std::string& key)
      -> std::shared_ptr<const LinearQuant> {
    const auto it = state.find(key);
    if (it == state.end()) return nullptr;
    consumed.insert(key);
    return std::make_shared<const LinearQuant>(prepare(it->second));
  };
  root.for_each_module([&](const std::string& path, nn::Module& module) {
    const std::string prefix = path.empty() ? "" : path + ".";
    if (auto* linear = dynamic_cast<nn::Linear*>(&module)) {
      if (auto q = take(prefix + "weight")) linear->set_quantized(std::move(q));
    } else if (auto* cell = dynamic_cast<nn::GRUCell*>(&module)) {
      auto ih = take(prefix + "w_ih");
      auto hh = take(prefix + "w_hh");
      if (ih != nullptr || hh != nullptr) {
        cell->set_quantized(std::move(ih), std::move(hh));
      }
    }
  });
  for (const auto& [key, blob] : state) {
    if (consumed.count(key) == 0) {
      throw std::runtime_error("quant::attach: quantized blob '" + key +
                               "' matched no Linear/GRUCell in the module "
                               "tree (name drift?)");
    }
  }
}

}  // namespace saga::quant
