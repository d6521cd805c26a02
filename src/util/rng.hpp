// Deterministic random-number utilities.
//
// Every stochastic component in Saga (masking, init, batching, the synthetic
// data generator, Bayesian optimization) takes an explicit seed so that every
// experiment is reproducible. SeedSplitter derives independent child streams
// from one root seed (splitmix64), so modules never share generator state.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
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

/// MT19937-64 with std::mt19937_64's seeding, recurrence and tempering, so
/// one seed gives the same outputs as std::mt19937_64. The twist takes its
/// matrix term with a mask rather than a branch on a random bit, and each
/// output is tempered as it is drawn, so the state stays 312 words (the
/// size of std::mt19937_64). A UniformRandomBitGenerator over the full
/// 64-bit range, so std::shuffle and the std distributions accept it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (next_ == kWords) twist();
    result_type z = state_[next_++];
    z ^= (z >> 29U) & 0x5555555555555555ULL;
    z ^= (z << 17U) & 0x71d67fffeda60000ULL;
    z ^= (z << 37U) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43U);
  }

 private:
  static constexpr std::size_t kWords = 312;

  /// Regenerates all 312 state words (the recurrence); resets next_ to 0.
  void twist() noexcept;

  std::array<result_type, kWords> state_;
  std::size_t next_;
};

namespace detail {

/// std::generate_canonical<double, 53> of one 64-bit engine output as
/// libstdc++ computes it: the output rounded once to double, times 2^-64,
/// with a result of 1 (outputs from 2^64 - 1024 up) clamped to the largest
/// double below 1. Computed without the sign-bit branch of the compiler's
/// uint64 -> double conversion.
double canonical(std::uint64_t bits) noexcept;

}  // namespace detail

/// A seeded random generator with the distributions Saga needs.
///
/// Its sequence is std::mt19937_64's, and uniform() and normal() compute
/// exactly what libstdc++'s uniform_real_distribution and a freshly
/// constructed normal_distribution compute from it, so every seeded number
/// keeps the bits it had when Rng wrapped those classes. uniform_int,
/// geometric_clipped and permutation still go through the standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform real in [lo, hi): canonical * (hi - lo) + lo.
  double uniform(double lo = 0.0, double hi = 1.0);
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal scaled to mean/stddev, by one Marsaglia polar pass per
  /// call. The pass yields two variates; normal() returns one and discards
  /// the other, as a std::normal_distribution constructed per call does.
  /// Keeping the second would halve the cost but move every seeded number
  /// after the first.
  double normal(double mean = 0.0, double stddev = 1.0);
  /// Geometric draw (number of trials until first success), clipped to
  /// [1, max_value]; this is the span-length distribution of paper Eq. in
  /// Sec. IV-C: P(c = k) = (1-p)^{k-1} p.
  std::int64_t geometric_clipped(double p, std::int64_t max_value);

  /// Fisher-Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Access the underlying engine (for std::shuffle etc.).
  Mt19937_64& engine() noexcept { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace saga::util
