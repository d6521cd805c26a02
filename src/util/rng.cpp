#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

// Built without the kernel TUs' -mavx2 -mfma, so no multiply-add here can
// be contracted into an FMA: uniform() and normal() round each operation
// exactly as libstdc++'s distributions do.

namespace saga::util {

namespace {

// MT19937-64 parameters (std::mt19937_64): degree n, middle word m, the
// twist matrix's last row a, and the 31 low bits that the recurrence takes
// from the next word.
constexpr std::size_t kMiddle = 156;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kLowerMask = (std::uint64_t{1} << 31U) - 1U;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;

// One step of the recurrence: the upper bit of `word`, the lower 31 of
// `next`, shifted and xored with a when its low bit is set (by mask, not by
// a branch that mispredicts half the time), into `far`.
inline std::uint64_t recur(std::uint64_t far, std::uint64_t word,
                           std::uint64_t next) noexcept {
  const std::uint64_t y = (word & ~kLowerMask) | (next & kLowerMask);
  return far ^ (y >> 1U) ^ ((std::uint64_t{0} - (y & 1U)) & kMatrixA);
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Mt19937_64::Mt19937_64(result_type seed) noexcept : next_(kWords) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kWords; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = kInitMultiplier * (prev ^ (prev >> 62U)) + i;
  }
}

void Mt19937_64::twist() noexcept {
  std::size_t k = 0;
  for (; k < kWords - kMiddle; ++k) {
    state_[k] = recur(state_[k + kMiddle], state_[k], state_[k + 1]);
  }
  for (; k < kWords - 1; ++k) {
    state_[k] = recur(state_[k + kMiddle - kWords], state_[k], state_[k + 1]);
  }
  state_[kWords - 1] =
      recur(state_[kMiddle - 1], state_[kWords - 1], state_[0]);
  next_ = 0;
}

namespace detail {

double canonical(std::uint64_t bits) noexcept {
  // Both halves convert exactly and the sum rounds once, so this is the
  // correctly rounded uint64 -> double conversion. A sum of 2^64 scales to
  // 1, which min() maps to the largest double below 1, as libstdc++ does.
  const double value =
      (static_cast<double>(static_cast<std::uint32_t>(bits >> 32U)) * 0x1p32 +
       static_cast<double>(static_cast<std::uint32_t>(bits))) *
      0x1p-64;
  return std::min(value, 0x1.fffffffffffffp-1);
}

}  // namespace detail

double Rng::uniform(double lo, double hi) {
  return detail::canonical(engine_()) * (hi - lo) + lo;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  double x = 0.0;
  double y = 0.0;
  double r2 = 0.0;
  do {
    x = 2.0 * detail::canonical(engine_()) - 1.0;
    y = 2.0 * detail::canonical(engine_()) - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  // x * mult, the pass's second variate, is discarded (see rng.hpp).
  const double mult = std::sqrt(-2 * std::log(r2) / r2);
  return y * mult * stddev + mean;
}

std::int64_t Rng::geometric_clipped(double p, std::int64_t max_value) {
  // std::geometric_distribution counts failures before first success, so the
  // paper's "number of trials" form is that plus one.
  std::geometric_distribution<std::int64_t> dist(p);
  const std::int64_t trials = dist(engine_) + 1;
  return std::min(trials, max_value);
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::shuffle(idx.begin(), idx.end(), engine_);
  return idx;
}

}  // namespace saga::util
