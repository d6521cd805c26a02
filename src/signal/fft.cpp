#include "signal/fft.hpp"

#include <numbers>
#include <stdexcept>

namespace saga::signal {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1U;
  return p;
}

void fft_inplace(std::vector<std::complex<double>>& a, bool inverse) {
  const std::size_t n = a.size();
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("fft: size must be a power of two");
  }
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1U;
    for (; (j & bit) != 0U; bit >>= 1U) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1U) {
    const double angle =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = a[i + k];
        const std::complex<double> v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& value : a) value /= static_cast<double>(n);
  }
}

std::vector<std::complex<double>> rfft(const std::vector<double>& x) {
  if (x.empty()) throw std::invalid_argument("rfft: empty input");
  const std::size_t n = next_pow2(x.size());
  std::vector<std::complex<double>> a(n, {0.0, 0.0});
  for (std::size_t i = 0; i < x.size(); ++i) a[i] = {x[i], 0.0};
  fft_inplace(a, /*inverse=*/false);
  return a;
}

std::vector<double> amplitude_spectrum(const std::vector<double>& x) {
  const auto spectrum = rfft(x);
  const std::size_t half = spectrum.size() / 2;
  std::vector<double> amplitude(half + 1);
  for (std::size_t k = 0; k <= half; ++k) amplitude[k] = std::abs(spectrum[k]);
  return amplitude;
}

}  // namespace saga::signal
