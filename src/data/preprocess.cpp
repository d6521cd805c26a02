#include "data/preprocess.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "tensor/eltwise/eltwise.hpp"

namespace saga::data {

namespace {

// Accelerometer axes scaled by preprocess_window (acc xyz lead every layout).
constexpr std::int64_t kAccAxes = 3;

// False for zero, negatives, NaN and +Inf. Plain comparisons: the stream
// front end checks its rates and g once per window.
bool positive_finite(double x) {
  return x > 0.0 && x < std::numeric_limits<double>::infinity();
}

// normalize_accelerometer's argument checks; returns float(1 / g), the
// factor each accelerometer value is multiplied by.
float accelerometer_scale(double g, std::int64_t acc_axes,
                          std::int64_t channels) {
  if (!positive_finite(g)) {
    throw std::invalid_argument(
        "normalize_accelerometer: g must be positive and finite");
  }
  if (acc_axes > channels) {
    throw std::invalid_argument("normalize_accelerometer: acc_axes > channels");
  }
  return static_cast<float>(1.0 / g);
}

}  // namespace

Recording downsample(const Recording& recording, double target_hz) {
  if (recording.channels <= 0) {
    throw std::invalid_argument("downsample: channels must be positive");
  }
  const std::int64_t factor =
      decimation_factor(recording.sample_rate_hz, target_hz);
  if (factor == 1) return recording;  // already at or below target

  const std::int64_t out_length = recording.length() / factor;
  Recording out;
  out.channels = recording.channels;
  out.sample_rate_hz = recording.sample_rate_hz / static_cast<double>(factor);
  out.values.resize(static_cast<std::size_t>(out_length * out.channels));
  eltwise::block_average(recording.values.data(), out_length, out.channels,
                         factor, /*acc_axes=*/0, 1.0F, out.values.data());
  return out;
}

void normalize_accelerometer(Recording& recording, double g,
                             std::int64_t acc_axes) {
  const float inv_g = accelerometer_scale(g, acc_axes, recording.channels);
  const std::int64_t length = recording.length();
  for (std::int64_t t = 0; t < length; ++t) {
    float* row = recording.values.data() + t * recording.channels;
    for (std::int64_t a = 0; a < acc_axes; ++a) row[a] *= inv_g;
  }
}

void normalize_magnetometer(Recording& recording, std::int64_t mag_offset) {
  if (mag_offset + 3 > recording.channels) {
    throw std::invalid_argument("normalize_magnetometer: triad out of range");
  }
  const std::int64_t length = recording.length();
  for (std::int64_t t = 0; t < length; ++t) {
    float* m = recording.values.data() + t * recording.channels + mag_offset;
    const double norm =
        std::sqrt(double(m[0]) * m[0] + double(m[1]) * m[1] + double(m[2]) * m[2]);
    if (norm <= 0.0) continue;
    const auto inv = static_cast<float>(1.0 / norm);
    m[0] *= inv;
    m[1] *= inv;
    m[2] *= inv;
  }
}

std::vector<IMUWindow> slice_windows(const Recording& recording,
                                     std::int64_t window_length,
                                     std::int64_t stride, std::int32_t activity,
                                     std::int32_t user, std::int32_t placement,
                                     std::int32_t device) {
  if (window_length < 1 || stride < 1) {
    throw std::invalid_argument("slice_windows: window/stride must be >= 1");
  }
  std::vector<IMUWindow> windows;
  const std::int64_t length = recording.length();
  for (std::int64_t start = 0; start + window_length <= length; start += stride) {
    IMUWindow window;
    window.activity = activity;
    window.user = user;
    window.placement = placement;
    window.device = device;
    const auto begin = recording.values.begin() +
                       static_cast<std::ptrdiff_t>(start * recording.channels);
    window.values.assign(
        begin, begin + static_cast<std::ptrdiff_t>(window_length * recording.channels));
    windows.push_back(std::move(window));
  }
  return windows;
}

std::int64_t decimation_factor(double sample_rate_hz, double target_hz) {
  // llround of a ratio at or past 2^63 has no int64 result, so that ratio is
  // rejected before converting. One throw site keeps this small enough to
  // inline into preprocess_window, which calls it per window.
  const double ratio = sample_rate_hz / target_hz;
  if (!positive_finite(target_hz) || !positive_finite(sample_rate_hz) ||
      !(ratio < 0x1p63)) {
    throw std::invalid_argument(
        "decimation_factor: rates must be positive and finite, and "
        "rate / target below 2^63");
  }
  const auto factor = static_cast<std::int64_t>(std::llround(ratio));
  return factor < 1 ? 1 : factor;
}

std::vector<float> preprocess_window(std::span<const float> raw,
                                     std::int64_t channels,
                                     double sample_rate_hz, double target_hz,
                                     double g) {
  if (channels <= 0) {
    throw std::invalid_argument("preprocess_window: channels must be positive");
  }
  if (raw.size() % static_cast<std::size_t>(channels) != 0) {
    throw std::invalid_argument(
        "preprocess_window: raw size is not a multiple of channels");
  }
  const std::int64_t factor = decimation_factor(sample_rate_hz, target_hz);
  const auto raw_length =
      static_cast<std::int64_t>(raw.size()) / channels;
  if (raw_length % factor != 0) {
    throw std::invalid_argument(
        "preprocess_window: raw length " + std::to_string(raw_length) +
        " is not a multiple of the decimation factor " +
        std::to_string(factor));
  }
  const float inv_g = accelerometer_scale(g, kAccAxes, channels);
  // Straight from the caller's span into the result: the same block average
  // as downsample() (eltwise::block_average, bit-identical on every kernel)
  // with the accelerometer scaling folded in, so stream windows are
  // bit-identical to offline-ingested ones by construction.
  Recording window;
  window.channels = channels;
  window.values.resize(raw.size() / static_cast<std::size_t>(factor));
  eltwise::block_average(raw.data(), raw_length / factor, channels, factor,
                         kAccAxes, inv_g, window.values.data());
  if (channels >= 9) normalize_magnetometer(window, 6);
  return std::move(window.values);
}

std::int64_t ingest_recording(Dataset& dataset, Recording recording,
                              double target_hz, std::int32_t activity,
                              std::int32_t user, std::int32_t placement,
                              std::int32_t device, double g) {
  if (recording.channels != dataset.channels) {
    throw std::invalid_argument("ingest_recording: channel mismatch");
  }
  // The batch path slices the raw recording at factor-aligned boundaries
  // and funnels every window through the shared preprocess_window() entry
  // point (same arithmetic as downsample-whole-then-slice: block averages
  // never straddle a window edge because windows are factor-aligned).
  const std::int64_t factor =
      decimation_factor(recording.sample_rate_hz, target_hz);
  const std::int64_t raw_window = dataset.window_length * factor;
  const std::int64_t raw_length = recording.length();
  std::int64_t added = 0;
  for (std::int64_t start = 0; start + raw_window <= raw_length;
       start += raw_window) {
    IMUWindow window;
    window.activity = activity;
    window.user = user;
    window.placement = placement;
    window.device = device;
    window.values = preprocess_window(
        std::span<const float>(
            recording.values.data() + start * recording.channels,
            static_cast<std::size_t>(raw_window * recording.channels)),
        recording.channels, recording.sample_rate_hz, target_hz, g);
    dataset.samples.push_back(std::move(window));
    ++added;
  }
  return added;
}

}  // namespace saga::data
