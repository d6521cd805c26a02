#include "util/rng.hpp"

#include <algorithm>
#include <numeric>

namespace saga::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
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
