#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <random>
#include <string>

#include "data/preprocess.hpp"

namespace saga::data {
namespace {

Recording ramp_recording(std::int64_t length, std::int64_t channels,
                         double rate) {
  Recording r;
  r.channels = channels;
  r.sample_rate_hz = rate;
  r.values.resize(static_cast<std::size_t>(length * channels));
  for (std::int64_t t = 0; t < length; ++t) {
    for (std::int64_t c = 0; c < channels; ++c) {
      r.values[static_cast<std::size_t>(t * channels + c)] =
          static_cast<float>(t * 10 + c);
    }
  }
  return r;
}

TEST(Downsample, FactorAndLength) {
  const Recording r = ramp_recording(1000, 6, 100.0);
  const Recording d = downsample(r, 20.0);
  EXPECT_EQ(d.length(), 200);
  EXPECT_DOUBLE_EQ(d.sample_rate_hz, 20.0);
  EXPECT_EQ(d.channels, 6);
}

TEST(Downsample, BlockAveragesValues) {
  Recording r;
  r.channels = 1;
  r.sample_rate_hz = 40.0;
  r.values = {0.0F, 2.0F, 4.0F, 6.0F};  // factor 2 -> means {1, 5}
  const Recording d = downsample(r, 20.0);
  ASSERT_EQ(d.length(), 2);
  EXPECT_FLOAT_EQ(d.values[0], 1.0F);
  EXPECT_FLOAT_EQ(d.values[1], 5.0F);
}

TEST(Downsample, NoOpWhenAlreadyAtTarget) {
  const Recording r = ramp_recording(50, 3, 20.0);
  const Recording d = downsample(r, 20.0);
  EXPECT_EQ(d.values, r.values);
}

TEST(Downsample, AveragingSuppressesNyquistNoise) {
  // 50 Hz alternating spike on top of a constant; averaging by factor 5
  // (100 -> 20 Hz) must shrink its amplitude.
  Recording r;
  r.channels = 1;
  r.sample_rate_hz = 100.0;
  for (int t = 0; t < 500; ++t) {
    r.values.push_back(1.0F + (t % 2 == 0 ? 0.5F : -0.5F));
  }
  const Recording d = downsample(r, 20.0);
  for (const float v : d.values) EXPECT_NEAR(v, 1.0F, 0.11F);
}

TEST(Downsample, ValidatesArguments) {
  const Recording r = ramp_recording(10, 2, 100.0);
  EXPECT_THROW(downsample(r, 0.0), std::invalid_argument);
  Recording bad = r;
  bad.sample_rate_hz = -1.0;
  EXPECT_THROW(downsample(bad, 20.0), std::invalid_argument);
  bad.sample_rate_hz = std::nan("");
  EXPECT_THROW(downsample(bad, 20.0), std::invalid_argument);
}

TEST(NormalizeAccelerometer, DividesByG) {
  Recording r;
  r.channels = 6;
  r.sample_rate_hz = 20.0;
  r.values = {9.80665F, 0.0F, 19.6133F, 7.0F, 8.0F, 9.0F};
  normalize_accelerometer(r);
  EXPECT_NEAR(r.values[0], 1.0F, 1e-5F);
  EXPECT_NEAR(r.values[2], 2.0F, 1e-4F);
  EXPECT_FLOAT_EQ(r.values[3], 7.0F);  // gyro untouched
}

TEST(NormalizeMagnetometer, UnitNormPerStep) {
  Recording r;
  r.channels = 9;
  r.sample_rate_hz = 20.0;
  r.values.assign(18, 0.0F);
  r.values[6] = 3.0F;
  r.values[7] = 4.0F;   // norm 5
  r.values[15] = 0.0F;  // second step: zero vector stays zero
  normalize_magnetometer(r);
  EXPECT_NEAR(r.values[6], 0.6F, 1e-6F);
  EXPECT_NEAR(r.values[7], 0.8F, 1e-6F);
  EXPECT_EQ(r.values[15], 0.0F);
}

TEST(NormalizeMagnetometer, ValidatesOffset) {
  Recording r = ramp_recording(5, 6, 20.0);
  EXPECT_THROW(normalize_magnetometer(r, 6), std::invalid_argument);
}

TEST(SliceWindows, NonOverlapping) {
  const Recording r = ramp_recording(250, 6, 20.0);
  const auto windows = slice_windows(r, 120, 120, 2, 5);
  ASSERT_EQ(windows.size(), 2U);  // 250 / 120 -> 2 full windows
  EXPECT_EQ(windows[0].values.size(), 120U * 6U);
  EXPECT_EQ(windows[0].activity, 2);
  EXPECT_EQ(windows[0].user, 5);
  // Second window starts at sample 120.
  EXPECT_FLOAT_EQ(windows[1].values[0], 1200.0F);
}

TEST(SliceWindows, OverlappingStride) {
  const Recording r = ramp_recording(100, 3, 20.0);
  const auto windows = slice_windows(r, 40, 20, 0, 0);
  EXPECT_EQ(windows.size(), 4U);  // starts at 0, 20, 40, 60
}

TEST(SliceWindows, TooShortRecording) {
  const Recording r = ramp_recording(30, 3, 20.0);
  EXPECT_TRUE(slice_windows(r, 120, 120, 0, 0).empty());
  EXPECT_THROW(slice_windows(r, 0, 10, 0, 0), std::invalid_argument);
}

TEST(IngestRecording, FullPipelineMatchesPaperSteps) {
  Dataset dataset;
  dataset.window_length = 120;
  dataset.channels = 6;
  dataset.num_activities = 6;
  dataset.num_users = 9;
  dataset.num_placements = 1;

  // 100 Hz recording, 13 seconds -> 20 Hz, 260 samples -> 2 windows.
  Recording r;
  r.channels = 6;
  r.sample_rate_hz = 100.0;
  const std::int64_t length = 1300;
  r.values.resize(static_cast<std::size_t>(length * 6));
  for (std::int64_t t = 0; t < length; ++t) {
    for (std::int64_t c = 0; c < 6; ++c) {
      r.values[static_cast<std::size_t>(t * 6 + c)] = static_cast<float>(
          9.80665 * std::sin(2.0 * std::numbers::pi * double(t) / 50.0 + double(c)));
    }
  }
  const auto added = ingest_recording(dataset, r, 20.0, 3, 7);
  EXPECT_EQ(added, 2);
  ASSERT_EQ(dataset.samples.size(), 2U);
  EXPECT_EQ(dataset.samples[0].activity, 3);
  EXPECT_EQ(dataset.samples[0].user, 7);
  // Normalized acc values are in g-units: bounded by ~1.
  for (const auto& window : dataset.samples) {
    for (std::size_t i = 0; i < window.values.size(); i += 6) {
      EXPECT_LE(std::abs(window.values[i]), 1.05F);
    }
  }
}

TEST(DecimationFactor, RoundsAndClamps) {
  EXPECT_EQ(decimation_factor(100.0, 20.0), 5);
  EXPECT_EQ(decimation_factor(200.0, 20.0), 10);
  EXPECT_EQ(decimation_factor(50.0, 20.0), 3);   // round(2.5) away from zero
  EXPECT_EQ(decimation_factor(20.0, 20.0), 1);
  EXPECT_EQ(decimation_factor(10.0, 20.0), 1);   // below target: clamp to 1
  EXPECT_THROW(decimation_factor(0.0, 20.0), std::invalid_argument);
  EXPECT_THROW(decimation_factor(100.0, -1.0), std::invalid_argument);
  // Non-finite rates are rejected, not turned into factor 1.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(decimation_factor(std::nan(""), 20.0), std::invalid_argument);
  EXPECT_THROW(decimation_factor(100.0, std::nan("")), std::invalid_argument);
  EXPECT_THROW(decimation_factor(kInf, 20.0), std::invalid_argument);
  EXPECT_THROW(decimation_factor(100.0, kInf), std::invalid_argument);
  // So is a finite ratio whose rounding has no int64 value (llround's
  // overflow used to clamp it to 1); ratios below 2^63 still convert.
  EXPECT_THROW(decimation_factor(1e300, 20.0), std::invalid_argument);
  EXPECT_THROW(decimation_factor(20.0 * 0x1p63, 20.0), std::invalid_argument);
  EXPECT_EQ(decimation_factor(20.0 * 0x1p62, 20.0), std::int64_t{1} << 62);
}

TEST(PreprocessWindow, MatchesDownsampleThenNormalize) {
  // One raw window through the shared entry point == the explicit paper
  // steps, bit for bit.
  const Recording r = ramp_recording(40, 6, 100.0);
  const std::vector<float> processed =
      preprocess_window(r.values, 6, 100.0, 20.0);
  Recording expected = downsample(r, 20.0);
  normalize_accelerometer(expected);
  EXPECT_EQ(processed, expected.values);
}

TEST(PreprocessWindow, ValidatesShape) {
  const Recording r = ramp_recording(40, 6, 100.0);
  EXPECT_THROW(preprocess_window(r.values, 0, 100.0, 20.0),
               std::invalid_argument);
  EXPECT_THROW(preprocess_window(r.values, 7, 100.0, 20.0),
               std::invalid_argument);  // 240 values not a multiple of 7
  // 41 samples is not a multiple of the factor-5 block size.
  const Recording odd = ramp_recording(41, 6, 100.0);
  EXPECT_THROW(preprocess_window(odd.values, 6, 100.0, 20.0),
               std::invalid_argument);
}

TEST(PreprocessWindow, SlicedWindowsAreBitIdenticalToWholeRecording) {
  // The contract the streaming path depends on: preprocessing factor-aligned
  // raw slices one window at a time produces exactly the same floats as
  // downsampling the whole recording first and slicing after (the batch
  // path). Overlapping hops included.
  const std::int64_t factor = decimation_factor(100.0, 20.0);  // 5
  const std::int64_t window_length = 8;
  const std::int64_t hop = 4;
  const Recording raw = ramp_recording(137, 6, 100.0);  // odd tail on purpose

  Recording batch = downsample(raw, 20.0);
  normalize_accelerometer(batch);

  const std::int64_t raw_window = window_length * factor;
  const std::int64_t raw_hop = hop * factor;
  std::int64_t produced = 0;
  for (std::int64_t start = 0; start + raw_window <= raw.length();
       start += raw_hop, ++produced) {
    const std::span<const float> slice(
        raw.values.data() + static_cast<std::size_t>(start * 6),
        static_cast<std::size_t>(raw_window * 6));
    const std::vector<float> streamed =
        preprocess_window(slice, 6, 100.0, 20.0);
    ASSERT_EQ(streamed.size(), static_cast<std::size_t>(window_length * 6));
    const std::int64_t model_start = (start / factor) * 6;
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      // EXPECT_EQ, not NEAR: the two paths must agree bit for bit.
      ASSERT_EQ(streamed[i],
                batch.values[static_cast<std::size_t>(model_start) + i])
          << "window starting at raw sample " << start << ", value " << i;
    }
  }
  EXPECT_GE(produced, 4);  // the loop actually exercised overlapping windows
}

// ---- test-side oracle ----------------------------------------------------

// The per-window arithmetic, spelled out the slow way: copy the window; block
// average it value by value with one double accumulator starting at 0.0 and
// summing k = 0 .. factor-1, divided by double(factor) (never multiplied by
// a reciprocal) and rounded to float; multiply the acc axes by float(1/g);
// then normalize_magnetometer for 9+ channels. Factor 1 passes the copy
// through unaveraged. preprocess_window and downsample share one optimized
// block-average body, so they are pinned against this instead of each other.
std::vector<float> reference_preprocess(std::span<const float> raw,
                                        std::int64_t channels,
                                        std::int64_t factor, double g) {
  const std::vector<float> copy(raw.begin(), raw.end());
  const auto raw_length = static_cast<std::int64_t>(copy.size()) / channels;
  std::vector<float> out = copy;
  if (factor > 1) {
    const std::int64_t out_length = raw_length / factor;
    out.assign(static_cast<std::size_t>(out_length * channels), 0.0F);
    for (std::int64_t t = 0; t < out_length; ++t) {
      for (std::int64_t c = 0; c < channels; ++c) {
        double acc = 0.0;
        for (std::int64_t k = 0; k < factor; ++k) {
          acc += copy[static_cast<std::size_t>((t * factor + k) * channels + c)];
        }
        out[static_cast<std::size_t>(t * channels + c)] =
            static_cast<float>(acc / static_cast<double>(factor));
      }
    }
  }
  const auto inv_g = static_cast<float>(1.0 / g);
  for (std::size_t row = 0; row < out.size();
       row += static_cast<std::size_t>(channels)) {
    for (std::size_t a = 0; a < 3; ++a) out[row + a] *= inv_g;
  }
  if (channels >= 9) {
    Recording r;
    r.channels = channels;
    r.values = std::move(out);
    normalize_magnetometer(r, 6);
    out = std::move(r.values);
  }
  return out;
}

void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Bit patterns, not ==: NaN must stay NaN and -0.0 must stay -0.0.
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << ", value " << i << ": got " << got[i] << ", want "
        << want[i];
  }
}

/// Random raw values mixing ordinary readings, +-1e6 magnitudes, -0.0 and
/// NaN. The first block is all -0.0, so factor > 1 has to produce
/// 0.0 + -0.0 = +0.0 there and factor 1 has to keep the sign bit. For
/// factors 5 and 10 the second block sums to a double whose quotient by the
/// factor rounds to another float than its product with 0.2 (0.1) does, so
/// multiplying by a reciprocal cannot pass either.
std::vector<float> hostile_values(std::int64_t samples, std::int64_t channels,
                                  std::int64_t factor, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> unit(-1.0F, 1.0F);
  std::uniform_int_distribution<int> kind(0, 19);
  std::vector<float> values(static_cast<std::size_t>(samples * channels));
  for (float& v : values) {
    switch (kind(gen)) {
      case 0: v = 1e6F * unit(gen); break;
      case 1: v = -0.0F; break;
      case 2: v = std::numeric_limits<float>::quiet_NaN(); break;
      default: v = 12.0F * unit(gen); break;
    }
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(factor * channels); ++i) {
    values[i] = -0.0F;
  }
  if (factor == 5 || factor == 10) {
    const float twice = factor == 10 ? 2.0F : 1.0F;
    const float addends[] = {0x1.800004p+2F * twice, 0x1.8p-23F * twice,
                             -0x1p-50F * twice};
    for (std::int64_t k = 0; k < factor; ++k) {
      for (std::int64_t c = 0; c < channels; ++c) {
        values[static_cast<std::size_t>((factor + k) * channels + c)] =
            k < 3 ? addends[k] : 0.0F;
      }
    }
  }
  return values;
}

TEST(PreprocessWindow, BitIdenticalToReferenceArithmetic) {
  // 3 and 7 channels end in the odd-channel tail, 9 adds the magnetometer.
  for (const std::int64_t channels : {3, 6, 7, 9}) {
    for (const std::int64_t factor : {1, 2, 5, 10}) {
      for (const double g : {1.0, 9.80665}) {
        const double rate = 20.0 * static_cast<double>(factor);
        const std::int64_t samples = 12 * factor;
        const std::vector<float> raw = hostile_values(
            samples, channels, factor,
            static_cast<std::uint32_t>(channels * 100 + factor));
        const std::string what = "channels " + std::to_string(channels) +
                                 ", factor " + std::to_string(factor) +
                                 ", g " + std::to_string(g);
        const std::vector<float> want =
            reference_preprocess(raw, channels, factor, g);
        expect_same_bits(preprocess_window(raw, channels, rate, 20.0, g), want,
                         "preprocess_window, " + what);

        // The batch path: downsample the whole recording, then normalize.
        Recording batch;
        batch.channels = channels;
        batch.sample_rate_hz = rate;
        batch.values = raw;
        batch = downsample(batch, 20.0);
        normalize_accelerometer(batch, g);
        if (channels >= 9) normalize_magnetometer(batch, 6);
        expect_same_bits(batch.values, want, "downsample, " + what);
      }
    }
  }
}

TEST(PreprocessWindow, FactorOneKeepsNegativeZero) {
  const std::vector<float> raw(6 * 4, -0.0F);
  for (const float v : preprocess_window(raw, 6, 20.0, 20.0)) {
    EXPECT_TRUE(std::signbit(v));
  }
  // The same block averaged (factor 2) is 0.0 + -0.0 = +0.0.
  for (const float v : preprocess_window(raw, 6, 40.0, 20.0)) {
    EXPECT_FALSE(std::signbit(v));
  }
}

TEST(PreprocessWindow, AccelerometerErrorsKeepTheirMessages) {
  const std::vector<float> raw(2 * 10, 1.0F);
  const auto message = [&](std::int64_t channels, double g) {
    try {
      (void)preprocess_window(raw, channels, 100.0, 20.0, g);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  const std::string bad_g =
      "normalize_accelerometer: g must be positive and finite";
  EXPECT_EQ(message(2, 9.80665), "normalize_accelerometer: acc_axes > channels");
  EXPECT_EQ(message(4, 0.0), bad_g);
  EXPECT_EQ(message(2, -1.0), bad_g);  // g first
  // NaN would make every accelerometer value NaN, +Inf would zero them.
  EXPECT_EQ(message(4, std::nan("")), bad_g);
  EXPECT_EQ(message(4, std::numeric_limits<double>::infinity()), bad_g);
}

TEST(IngestRecording, RejectsChannelMismatch) {
  Dataset dataset;
  dataset.channels = 9;
  Recording r = ramp_recording(200, 6, 100.0);
  EXPECT_THROW(ingest_recording(dataset, r, 20.0, 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace saga::data
