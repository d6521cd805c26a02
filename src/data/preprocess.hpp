// Raw-recording preprocessing (paper §VII-A2): the steps that turn a
// continuous phone recording into model-ready windows —
//   1. down-sample to 20 Hz,
//   2. slice into 6-second windows (120 points),
//   3. normalize: accelerometer a* = a / g, magnetometer m* = m / ||m||.
// The synthetic generator emits already-normalized windows; this module is
// the ingestion path for real IMU logs.
//
// The per-window arithmetic lives in one entry point, preprocess_window():
// both the batch path (ingest_recording) and the streaming path
// (stream::SessionManager) run raw source-rate windows through it, so a
// window cut from a live stream is bit-identical to the same samples sliced
// offline from a whole Recording (tested in tests/test_preprocess.cpp).
//
// Consumes: a Recording ([num_samples x channels] row-major at any rate).
// Produces: normalized fixed-length IMUWindows appended to a Dataset.
// All functions are pure or mutate only their own arguments, so distinct
// recordings may be ingested from parallel_for workers into distinct
// datasets; appending into one shared Dataset must stay single-threaded.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.hpp"

namespace saga::data {

/// A continuous multi-channel recording sampled at a fixed rate, row-major
/// [num_samples x channels]. Channel convention matches IMUWindow
/// (acc xyz, gyro xyz, optional mag xyz).
struct Recording {
  std::vector<float> values;
  std::int64_t channels = 6;
  double sample_rate_hz = 100.0;

  std::int64_t length() const noexcept {
    return channels == 0 ? 0 : static_cast<std::int64_t>(values.size()) / channels;
  }
};

/// Down-samples by block averaging to (approximately) `target_hz`; the
/// decimation factor is round(rate / target). Averaging (not plain
/// decimation) low-passes the signal, which is what keeps 100-200 Hz HHAR
/// recordings alias-free at 20 Hz.
Recording downsample(const Recording& recording, double target_hz);

/// Accelerometer axes divided by g (values become unitless multiples of
/// gravity). `g` defaults to 9.80665 m/s^2 for recordings in m/s^2; pass 1.0
/// when the source already reports g-units.
void normalize_accelerometer(Recording& recording, double g = 9.80665,
                             std::int64_t acc_axes = 3);

/// Magnetometer triad (channels [mag_offset, mag_offset+3)) scaled to unit
/// norm per time step; zero vectors are left untouched.
void normalize_magnetometer(Recording& recording, std::int64_t mag_offset = 6);

/// Block-averaging decimation factor from `sample_rate_hz` down to
/// `target_hz`: round(rate / target), clamped to >= 1 (a source already at
/// or below the target passes through unchanged). Throws
/// std::invalid_argument on non-positive or non-finite rates and on a ratio
/// of 2^63 or more, whose rounding has no int64 value. The streaming path
/// sizes its raw windows as model_window * decimation_factor so that one raw
/// window downsamples to exactly one model window.
std::int64_t decimation_factor(double sample_rate_hz, double target_hz);

/// The shared per-window preprocessing entry point: one raw source-rate
/// window -> one model-ready window. `raw` is [raw_length x channels]
/// row-major where raw_length must be a multiple of
/// decimation_factor(sample_rate_hz, target_hz); the result is the
/// block-averaged, accelerometer-normalized (and, for 9+ channels,
/// magnetometer-normalized) window of raw_length / factor samples. Because
/// block averages only ever combine samples within one factor-aligned
/// block, running this on factor-aligned slices of a recording is
/// bit-identical to downsampling the whole recording first and slicing
/// after — which is why the batch and stream ingestion paths can share it.
/// `raw` is read in place, with no intermediate copy: downsample()'s
/// block average (eltwise::block_average, whose AVX2 kernel is bit-identical
/// to its scalar one) writes the result directly, the accelerometer scaling
/// folded into the same pass.
std::vector<float> preprocess_window(std::span<const float> raw,
                                     std::int64_t channels,
                                     double sample_rate_hz, double target_hz,
                                     double g = 9.80665);

/// Slices the recording into fixed-length windows with the given stride
/// (stride == window_length gives the paper's non-overlapping 6 s windows).
/// Labels are applied to every produced window.
std::vector<IMUWindow> slice_windows(const Recording& recording,
                                     std::int64_t window_length,
                                     std::int64_t stride, std::int32_t activity,
                                     std::int32_t user, std::int32_t placement = 0,
                                     std::int32_t device = 0);

/// Full §VII-A2 pipeline: downsample -> normalize (acc, and mag when the
/// recording has 9+ channels) -> slice. Appends to `dataset.samples` and
/// returns the number of windows added.
std::int64_t ingest_recording(Dataset& dataset, Recording recording,
                              double target_hz, std::int32_t activity,
                              std::int32_t user, std::int32_t placement = 0,
                              std::int32_t device = 0, double g = 9.80665);

}  // namespace saga::data
