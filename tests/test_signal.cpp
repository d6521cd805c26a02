#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "reference.hpp"
#include "signal/fft.hpp"
#include "signal/keypoints.hpp"
#include "signal/period.hpp"

namespace saga::signal {
namespace {

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1U);
  EXPECT_EQ(next_pow2(2), 2U);
  EXPECT_EQ(next_pow2(3), 4U);
  EXPECT_EQ(next_pow2(120), 128U);
  EXPECT_EQ(next_pow2(128), 128U);
}

TEST(Fft, MatchesNaiveDft) {
  std::vector<double> x(37);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(0.3 * double(i)) + 0.5 * std::cos(1.1 * double(i));
  }
  const auto fast = rfft(x);
  const auto slow = reference::naive_dft(x);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t k = 0; k < fast.size(); ++k) {
    EXPECT_NEAR(fast[k].real(), slow[k].real(), 1e-8) << "bin " << k;
    EXPECT_NEAR(fast[k].imag(), slow[k].imag(), 1e-8) << "bin " << k;
  }
}

TEST(Fft, InverseRecoversInput) {
  std::vector<std::complex<double>> a(16);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = {double(i), -0.5 * double(i)};
  auto copy = a;
  fft_inplace(copy, false);
  fft_inplace(copy, true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(copy[i].real(), a[i].real(), 1e-9);
    EXPECT_NEAR(copy[i].imag(), a[i].imag(), 1e-9);
  }
}

TEST(Fft, RejectsNonPow2) {
  std::vector<std::complex<double>> a(12);
  EXPECT_THROW(fft_inplace(a, false), std::invalid_argument);
  EXPECT_THROW(rfft({}), std::invalid_argument);
}

TEST(Fft, PureToneConcentratesAmplitude) {
  const std::size_t n = 128;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * 8.0 * double(i) / double(n));
  }
  const auto amp = amplitude_spectrum(x);
  std::size_t best = 1;
  for (std::size_t k = 1; k < amp.size(); ++k) {
    if (amp[k] > amp[best]) best = k;
  }
  EXPECT_EQ(best, 8U);
}

TEST(Energy, SumsAccelerometerSquares) {
  // 2 time steps, 6 channels; energy uses the first 3 (acc).
  std::vector<float> window{1, 2, 3, 9, 9, 9, 0, 0, 2, 9, 9, 9};
  const auto e = energy_series(window, 2, 6, 3);
  ASSERT_EQ(e.size(), 2U);
  EXPECT_NEAR(e[0], 1 + 4 + 9, 1e-9);
  EXPECT_NEAR(e[1], 4, 1e-9);
}

TEST(Energy, ValidatesShapes) {
  std::vector<float> window(10);
  EXPECT_THROW(energy_series(window, 3, 4, 3), std::invalid_argument);
  EXPECT_THROW(energy_series(window, 2, 5, 6), std::invalid_argument);
}

TEST(KeyPoints, FindsCleanPeaksAndValleys) {
  // Smooth triangular wave: peaks at 5, 15; valleys at 10.
  std::vector<double> e;
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (int i = 0; i < 5; ++i) e.push_back(i);
    for (int i = 5; i > 0; --i) e.push_back(i);
  }
  KeyPointOptions options;
  options.dominance_window = 2;
  options.min_distance = 3;
  const auto kp = find_key_points(e, options);
  ASSERT_FALSE(kp.peaks.empty());
  ASSERT_FALSE(kp.valleys.empty());
  for (const auto p : kp.peaks) EXPECT_NEAR(e[static_cast<std::size_t>(p)], 4.5, 0.6);
}

TEST(KeyPoints, FiltersSpikesViaDominanceWindow) {
  // One real peak at 10 plus a tiny spike at 13 that a plain local-max test
  // would keep; the dominance filter (paper Eq. 1) must reject the spike.
  std::vector<double> e(30, 0.0);
  for (int i = 0; i < 10; ++i) {
    e[static_cast<std::size_t>(i)] = i;
    e[static_cast<std::size_t>(20 - i)] = i;
  }
  e[10] = 10.0;
  e[13] = 7.6;  // spike above neighbours (7.0) but below the window max
  KeyPointOptions options;
  options.dominance_window = 4;
  options.min_distance = 2;
  const auto kp = find_key_points(e, options);
  for (const auto p : kp.peaks) EXPECT_NE(p, 13);
  EXPECT_NE(std::find(kp.peaks.begin(), kp.peaks.end(), 10), kp.peaks.end());
}

TEST(KeyPoints, EnforcesMinDistance) {
  std::vector<double> e(40, 0.0);
  // Peaks of equal height every 3 samples; min_distance 5 must thin them.
  for (std::size_t i = 2; i < e.size(); i += 3) e[i] = 5.0;
  KeyPointOptions options;
  options.dominance_window = 1;
  options.min_distance = 5;
  const auto kp = find_key_points(e, options);
  for (std::size_t i = 1; i < kp.peaks.size(); ++i) {
    EXPECT_GE(kp.peaks[i] - kp.peaks[i - 1], 5);
  }
}

TEST(KeyPoints, SubPeriodsPartitionWindow) {
  std::vector<double> e(50);
  for (std::size_t i = 0; i < e.size(); ++i) {
    e[i] = std::sin(2.0 * std::numbers::pi * double(i) / 10.0);
  }
  const auto kp = find_key_points(e, {});
  const auto ranges = sub_periods(kp, 50);
  ASSERT_GE(ranges.size(), 2U);
  EXPECT_EQ(ranges.front().first, 0);
  EXPECT_EQ(ranges.back().second, 50);
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].first, ranges[i - 1].second);  // contiguous
    EXPECT_LT(ranges[i].first, ranges[i].second);      // non-empty
  }
}

TEST(MainPeriod, DetectsSinusoidPeriod) {
  // Period 16 tone sampled 128 times: bin = 128/16 = 8.
  std::vector<double> e(128);
  for (std::size_t i = 0; i < e.size(); ++i) {
    e[i] = 3.0 + std::sin(2.0 * std::numbers::pi * double(i) / 16.0);
  }
  const auto result = find_main_period(e);
  EXPECT_EQ(result.period, 16);
}

TEST(MainPeriod, Window120PaddedDetection) {
  // The paper's window is 120 samples (padded to 128). A 2 Hz gait at 20 Hz
  // sampling = period 10 samples.
  std::vector<double> e(120);
  for (std::size_t i = 0; i < e.size(); ++i) {
    e[i] = 1.0 + 0.8 * std::sin(2.0 * std::numbers::pi * double(i) / 10.0);
  }
  const auto result = find_main_period(e);
  EXPECT_NEAR(static_cast<double>(result.period), 10.0, 1.0);
}

TEST(MainPeriod, FlatSignalHasNoPeriod) {
  std::vector<double> e(120, 2.5);
  const auto result = find_main_period(e);
  EXPECT_EQ(result.period, 0);
}

TEST(MainPeriod, RespectsMinCycles) {
  // Period 100 in a 120-sample window: fewer than 2 full cycles -> rejected.
  std::vector<double> e(120);
  for (std::size_t i = 0; i < e.size(); ++i) {
    e[i] = std::sin(2.0 * std::numbers::pi * double(i) / 100.0);
  }
  PeriodOptions options;
  options.min_cycles = 2;
  const auto result = find_main_period(e, options);
  EXPECT_LE(result.period, 60);
}

}  // namespace
}  // namespace saga::signal
