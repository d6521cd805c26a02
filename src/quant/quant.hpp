// saga::quant — post-training int8 quantization for the serving path.
//
// Scheme (symmetric, zero-point-free on the weight side):
//   weights      per-output-channel int8: for column n of a [in, out] matrix,
//                scale_w[n] = absmax(W[:, n]) / 127, q = round(w / scale_w),
//                clamped to [-127, 127].
//   activations  per-tensor symmetric, in one of two encodings picked at
//                prepare time from the dispatched GEMM kernel:
//                  7-bit  scale_x = absmax / 63, q = round(clamp(x/s, +-63)),
//                         stored unsigned as q + 64 in [1, 127]
//                  8-bit  scale_x = absmax / 127, q = round(clamp(x/s, +-127)),
//                         stored unsigned as q + 128 in [1, 255]
//                (eltwise::bias_act_quantize; NaN takes the offset code)
//
// The 7-bit encoding is what makes the AVX2 maddubs GEMM kernel exact: its
// u8*s8 byte-pair sums saturate at +-32767, and 127*127*2 = 32258 never
// reaches that. The vpdpbusd (VNNI) kernels and the scalar reference
// accumulate straight into s32, so when one of them is dispatched the 8-bit
// encoding halves the activation quantization step for free — see
// preferred_act_encoding(). Either offset is undone in the dequantizing
// epilogue via the packed per-column weight sums:
//   y[m, n] = (acc[m, n] - zero * colsum[n]) * scale_x * scale_w[n]  (+ bias)
//
// QuantBlob.act_scale is ALWAYS stored in the 7-bit encoding (absmax / 63) so
// v3 artifact bytes are encoding-independent; prepare() rescales to 8-bit
// when that encoding is selected.
//
// Calibration: wrap fp32 forwards in a CalibrationScope; nn::Linear and
// nn::GRUCell report every matmul input through observe(), and the scope
// records per-(module, slot) absolute maxima that become activation scales.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace saga {
class Tensor;
}

namespace saga::quant {

/// Numeric format of an artifact's weight payload. parse_precision rejects
/// anything else with an error naming the supported formats, so a bundle
/// from a newer build fails loudly instead of misloading.
enum class Precision { kFp32, kInt8 };

const char* precision_name(Precision precision);
Precision parse_precision(const std::string& name);

inline constexpr int kWeightMax = 127;  // int8 symmetric weight range
inline constexpr int kActMax = 63;      // 7-bit symmetric activation range
inline constexpr int kActZero = 64;     // 7-bit unsigned storage offset
inline constexpr int kActMax8 = 127;    // 8-bit symmetric activation range
inline constexpr int kActZero8 = 128;   // 8-bit unsigned storage offset

/// Unsigned storage encoding of quantized activations. k7Bit ([1, 127],
/// offset 64) is safe for every GEMM kernel; k8Bit ([1, 255], offset 128)
/// halves the quantization step but requires a kernel without maddubs's s16
/// saturation (see gemm_s8.hpp).
enum class ActEncoding { k7Bit, k8Bit };

const char* act_encoding_name(ActEncoding encoding);

constexpr int act_max(ActEncoding encoding) {
  return encoding == ActEncoding::k8Bit ? kActMax8 : kActMax;
}
constexpr int act_zero(ActEncoding encoding) {
  return encoding == ActEncoding::k8Bit ? kActZero8 : kActZero;
}

/// Encoding prepare() uses by default: k8Bit when the currently dispatched
/// int8 GEMM kernel is one of the vpdpbusd (VNNI) ones, else k7Bit — a
/// forced-scalar run could also take 8-bit, but keeping it on 7-bit makes
/// scalar-pinned CI runs byte-coherent with AVX2-only hosts. Resolved per
/// call so ForceInt8KernelGuard pins are honored. SAGA_INT8_ACT_BITS=7|8
/// (read once per process) overrides the kernel-derived choice — the 7-bit
/// pin is how CI keeps the maddubs serve path covered on VNNI hosts; any
/// other value throws std::runtime_error.
ActEncoding preferred_act_encoding();

/// One quantized weight matrix: row-major [rows, cols] int8 values with a
/// per-column (= per output channel) scale, plus the per-tensor input
/// activation scale recorded at calibration time.
struct QuantBlob {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<std::int8_t> values;
  std::vector<float> scales;
  float act_scale = 1.0F;

  bool operator==(const QuantBlob&) const = default;
};

/// Quantized matrices keyed by their state_dict names ("input_proj.weight",
/// "gru.cell0.w_ih", ...), un-namespaced like Artifact's fp32 state maps.
using QuantState = std::map<std::string, QuantBlob>;

/// Per-output-channel symmetric quantization of a row-major [rows, cols]
/// fp32 matrix. A column's scale is absmax/127; all-zero columns get scale 1
/// (round-trips exactly), and columns whose absmax underflows the normal
/// float range are clamped to the smallest normal scale so dequantization
/// never produces inf/NaN. act_scale is left at its default.
QuantBlob quantize_weights(const float* w, std::int64_t rows,
                           std::int64_t cols);

/// fp32 reconstruction w ~= q * scale[col], row-major [rows, cols]. The
/// round-trip error of quantize->dequantize is at most scale[col]/2 per
/// element.
std::vector<float> dequantize_weights(const QuantBlob& blob);

/// Activation scale for a recorded absolute maximum (absmax/act_max, with
/// the same zero/underflow handling as weight scales).
float activation_scale(float absmax, ActEncoding encoding = ActEncoding::k7Bit);

// ---- calibration ----------------------------------------------------------

/// RAII recorder of activation ranges on the current thread. While a scope
/// is alive, fp32 forwards report matmul inputs through observe(); absmax()
/// then yields the per-(module, slot) maxima. Scopes nest (inner wins, outer
/// restored on destruction), mirroring the kernel-pin guards.
class CalibrationScope {
 public:
  CalibrationScope();
  ~CalibrationScope();
  CalibrationScope(const CalibrationScope&) = delete;
  CalibrationScope& operator=(const CalibrationScope&) = delete;

  /// Largest |x| observed for (key, slot); 0 when nothing was recorded.
  float absmax(const void* key, int slot) const;
  bool observed(const void* key, int slot) const;

 private:
  friend void observe(const void* key, int slot, const Tensor& x);
  std::map<std::pair<const void*, int>, float> maxima_;
  CalibrationScope* previous_;
};

/// Records |x|'s maximum under the active CalibrationScope; no-op (and
/// near-free) when no scope is active. `slot` disambiguates multiple matmul
/// inputs of one module (GRUCell: 0 = x into w_ih, 1 = h into w_hh).
void observe(const void* key, int slot, const Tensor& x);

}  // namespace saga::quant
