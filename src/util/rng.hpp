// Deterministic random-number utilities.
//
// Every stochastic component in Saga (masking, init, batching, the synthetic
// data generator, Bayesian optimization) takes an explicit seed so that every
// experiment is reproducible. SeedSplitter derives independent child streams
// from one root seed (splitmix64), so modules never share generator state.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace saga::util {

/// splitmix64 step: high-quality 64-bit mixing used to derive child seeds.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Derives statistically independent child seeds from a root seed.
class SeedSplitter {
 public:
  explicit SeedSplitter(std::uint64_t root_seed) noexcept : state_(root_seed) {}

  /// Returns the next child seed; successive calls give independent streams.
  std::uint64_t next() noexcept { return splitmix64(state_); }

 private:
  std::uint64_t state_;
};

/// Very fast xorshift128+ stream for hot loops (dropout masks). Not suitable
/// for statistics-sensitive sampling; use Rng for that.
class FastRng {
 public:
  explicit FastRng(std::uint64_t seed) noexcept {
    std::uint64_t state = seed;
    s0_ = splitmix64(state);
    s1_ = splitmix64(state);
  }

  std::uint64_t next() noexcept {
    std::uint64_t x = s0_;
    const std::uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23U;
    s1_ = x ^ y ^ (x >> 17U) ^ (y >> 26U);
    return s1_ + y;
  }

  /// Uniform float in [0, 1).
  float uniform01() noexcept {
    return static_cast<float>(next() >> 40U) * 0x1.0p-24F;
  }

 private:
  std::uint64_t s0_;
  std::uint64_t s1_;
};

/// A seeded random generator with the distributions Saga needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal scaled to mean/stddev.
  double normal(double mean = 0.0, double stddev = 1.0);
  /// Geometric draw (number of trials until first success), clipped to
  /// [1, max_value]; this is the span-length distribution of paper Eq. in
  /// Sec. IV-C: P(c = k) = (1-p)^{k-1} p.
  std::int64_t geometric_clipped(double p, std::int64_t max_value);

  /// Fisher-Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Access the underlying engine (for std::shuffle etc.).
  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace saga::util
