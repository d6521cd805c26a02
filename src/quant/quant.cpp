#include "quant/quant.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/gemm/gemm_s8.hpp"
#include "tensor/shape_ops.hpp"
#include "tensor/tensor.hpp"
#include "util/env.hpp"

namespace saga::quant {

namespace {

/// absmax -> scale with `levels` quantization steps per side. All-zero data
/// gets scale 1 (quantizes to exact zeros); a positive absmax whose scale
/// would underflow the normal float range is clamped to the smallest normal
/// scale, which keeps x/scale finite and (since absmax < levels * FLT_MIN
/// there) still inside the clamp range.
float scale_for(float absmax, int levels) {
  if (absmax == 0.0F) return 1.0F;
  const float scale = absmax / static_cast<float>(levels);
  return std::max(scale, std::numeric_limits<float>::min());
}

// Clamps in float before rounding, so a value past the int32 range
// saturates instead of overflowing the conversion.
std::int32_t round_clamp(float value, float limit) {
  return static_cast<std::int32_t>(
      std::lrintf(std::clamp(value, -limit, limit)));
}

}  // namespace

const char* precision_name(Precision precision) {
  return precision == Precision::kInt8 ? "int8" : "fp32";
}

Precision parse_precision(const std::string& name) {
  if (name == "fp32") return Precision::kFp32;
  if (name == "int8") return Precision::kInt8;
  throw std::runtime_error("unsupported precision \"" + name +
                           "\" (this build supports fp32, int8)");
}

QuantBlob quantize_weights(const float* w, std::int64_t rows,
                           std::int64_t cols) {
  if (rows <= 0 || cols <= 0) {
    throw std::invalid_argument("quantize_weights: non-positive shape");
  }
  QuantBlob blob;
  blob.rows = rows;
  blob.cols = cols;
  blob.values.resize(static_cast<std::size_t>(rows * cols));
  blob.scales.resize(static_cast<std::size_t>(cols));
  for (std::int64_t n = 0; n < cols; ++n) {
    float absmax = 0.0F;
    for (std::int64_t r = 0; r < rows; ++r) {
      const float v = w[r * cols + n];
      // Per-value check: std::max drops NaN (the comparison is false), so a
      // NaN weight would otherwise silently vanish from the absmax.
      if (!std::isfinite(v)) {
        throw std::invalid_argument(
            "quantize_weights: non-finite weight in column " +
            std::to_string(n));
      }
      absmax = std::max(absmax, std::fabs(v));
    }
    const float scale = scale_for(absmax, kWeightMax);
    blob.scales[static_cast<std::size_t>(n)] = scale;
    const float inv = 1.0F / scale;
    for (std::int64_t r = 0; r < rows; ++r) {
      blob.values[static_cast<std::size_t>(r * cols + n)] =
          static_cast<std::int8_t>(
              round_clamp(w[r * cols + n] * inv, kWeightMax));
    }
  }
  return blob;
}

std::vector<float> dequantize_weights(const QuantBlob& blob) {
  std::vector<float> out(blob.values.size());
  for (std::int64_t r = 0; r < blob.rows; ++r) {
    for (std::int64_t n = 0; n < blob.cols; ++n) {
      const auto i = static_cast<std::size_t>(r * blob.cols + n);
      out[i] = static_cast<float>(blob.values[i]) *
               blob.scales[static_cast<std::size_t>(n)];
    }
  }
  return out;
}

const char* act_encoding_name(ActEncoding encoding) {
  return encoding == ActEncoding::k8Bit ? "8-bit" : "7-bit";
}

ActEncoding preferred_act_encoding() {
  // 0 = follow the dispatched kernel; the env pin is for CI variants that
  // must hold one encoding regardless of host ISA.
  static const int pinned_bits = [] {
    const int bits = util::env_int("SAGA_INT8_ACT_BITS", 0);
    if (bits != 0 && bits != 7 && bits != 8) {
      throw std::runtime_error("SAGA_INT8_ACT_BITS must be 7 or 8, got " +
                               std::to_string(bits));
    }
    return bits;
  }();
  if (pinned_bits == 7) return ActEncoding::k7Bit;
  if (pinned_bits == 8) return ActEncoding::k8Bit;
  const gemm::Int8Kernel kernel = gemm::resolved_int8_kernel();
  const bool vnni = kernel == gemm::Int8Kernel::kAvxVnni ||
                    kernel == gemm::Int8Kernel::kAvx512Vnni;
  return vnni ? ActEncoding::k8Bit : ActEncoding::k7Bit;
}

float activation_scale(float absmax, ActEncoding encoding) {
  return scale_for(absmax, act_max(encoding));
}

namespace {
// Active scope on this thread (calibration runs model forwards inline, so
// the scope and the observed layers share a thread).
thread_local CalibrationScope* t_scope = nullptr;
}  // namespace

CalibrationScope::CalibrationScope() : previous_(t_scope) { t_scope = this; }

CalibrationScope::~CalibrationScope() { t_scope = previous_; }

float CalibrationScope::absmax(const void* key, int slot) const {
  const auto it = maxima_.find({key, slot});
  return it == maxima_.end() ? 0.0F : it->second;
}

bool CalibrationScope::observed(const void* key, int slot) const {
  return maxima_.count({key, slot}) != 0;
}

void observe(const void* key, int slot, const Tensor& x) {
  if (t_scope == nullptr) return;
  const Tensor flat = x.is_contiguous() ? x : contiguous(x);
  float absmax = 0.0F;
  for (const float v : flat.data()) absmax = std::max(absmax, std::fabs(v));
  float& recorded = t_scope->maxima_[{key, slot}];
  recorded = std::max(recorded, absmax);
}

}  // namespace saga::quant
