// Fast Fourier transform utilities (substitutes SciPy in the paper's
// implementation). Radix-2 iterative Cooley-Tukey over complex<double>;
// real inputs are zero-padded to the next power of two.
//
// Used by signal/period.hpp to find the main period of a window's energy
// series. All functions are pure (no globals, no internal threading) and
// safe to call concurrently.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

namespace saga::signal {

/// Next power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// In-place radix-2 FFT; size must be a power of two. `inverse` applies the
/// conjugate transform and 1/N scaling.
void fft_inplace(std::vector<std::complex<double>>& a, bool inverse);

/// FFT of a real series zero-padded to next_pow2(x.size()); returns the full
/// complex spectrum of that padded length.
std::vector<std::complex<double>> rfft(const std::vector<double>& x);

/// Amplitude spectrum |X_k| for k in [0, N/2] of the padded transform.
std::vector<double> amplitude_spectrum(const std::vector<double>& x);

}  // namespace saga::signal
