#include "bo/gp.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace saga::bo {

namespace {

double squared_distance(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

/// In-place Cholesky of a positive-definite row-major matrix; throws if the
/// matrix is not PD (after jitter).
void cholesky_inplace(std::vector<double>& m, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = m[i * n + j];
      for (std::size_t k = 0; k < j; ++k) sum -= m[i * n + k] * m[j * n + k];
      if (i == j) {
        if (sum <= 0.0) throw std::runtime_error("gp: kernel matrix not PD");
        m[i * n + j] = std::sqrt(sum);
      } else {
        m[i * n + j] = sum / m[j * n + j];
      }
    }
    for (std::size_t j = i + 1; j < n; ++j) m[i * n + j] = 0.0;
  }
}

/// Solves L z = b (forward substitution).
std::vector<double> solve_lower(const std::vector<double>& l, std::size_t n,
                                const std::vector<double>& b) {
  std::vector<double> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l[i * n + k] * z[k];
    z[i] = sum / l[i * n + i];
  }
  return z;
}

/// Solves L^T x = z (backward substitution).
std::vector<double> solve_upper_t(const std::vector<double>& l, std::size_t n,
                                  const std::vector<double>& z) {
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = z[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l[k * n + ii] * x[k];
    x[ii] = sum / l[ii * n + ii];
  }
  return x;
}

double normal_pdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::numbers::sqrt2); }

}  // namespace

GaussianProcess::GaussianProcess(Options options) : options_(options) {
  if (options_.length_scale <= 0.0 || options_.signal_variance <= 0.0 ||
      options_.noise_variance < 0.0) {
    throw std::invalid_argument("gp: bad hyper-parameters");
  }
}

double GaussianProcess::kernel(const std::vector<double>& a,
                               const std::vector<double>& b) const {
  const double l2 = effective_length_scale_ * effective_length_scale_;
  return options_.signal_variance * std::exp(-squared_distance(a, b) / (2.0 * l2));
}

void GaussianProcess::fit(std::vector<std::vector<double>> inputs,
                          std::vector<double> targets) {
  if (inputs.empty() || inputs.size() != targets.size()) {
    throw std::invalid_argument("gp: inputs/targets size mismatch");
  }
  const std::size_t dim = inputs.front().size();
  for (const auto& row : inputs) {
    if (row.size() != dim) throw std::invalid_argument("gp: ragged inputs");
  }
  inputs_ = std::move(inputs);
  const std::size_t n = inputs_.size();

  effective_length_scale_ = options_.length_scale;
  if (options_.median_heuristic && n >= 2) {
    std::vector<double> distances;
    distances.reserve(n * (n - 1) / 2);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        distances.push_back(std::sqrt(squared_distance(inputs_[i], inputs_[j])));
      }
    }
    std::nth_element(distances.begin(),
                     distances.begin() + static_cast<std::ptrdiff_t>(distances.size() / 2),
                     distances.end());
    const double median = distances[distances.size() / 2];
    if (median > 1e-9) effective_length_scale_ = median;
  }

  target_mean_ = 0.0;
  for (const double y : targets) target_mean_ += y;
  target_mean_ /= static_cast<double>(n);
  centered_targets_.resize(n);
  for (std::size_t i = 0; i < n; ++i) centered_targets_[i] = targets[i] - target_mean_;

  cholesky_.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      cholesky_[i * n + j] = kernel(inputs_[i], inputs_[j]);
    }
    cholesky_[i * n + i] += options_.noise_variance + 1e-10;
  }
  cholesky_inplace(cholesky_, n);

  const auto z = solve_lower(cholesky_, n, centered_targets_);
  alpha_ = solve_upper_t(cholesky_, n, z);
}

GaussianProcess::Prediction GaussianProcess::predict(
    const std::vector<double>& x) const {
  if (!fitted()) {
    // Prior: zero mean (no observations), prior variance.
    return {0.0, std::sqrt(options_.signal_variance)};
  }
  const std::size_t n = inputs_.size();
  std::vector<double> k_star(n);
  for (std::size_t i = 0; i < n; ++i) k_star[i] = kernel(inputs_[i], x);

  double mean = target_mean_;
  for (std::size_t i = 0; i < n; ++i) mean += k_star[i] * alpha_[i];

  const auto v = solve_lower(cholesky_, n, k_star);
  double reduction = 0.0;
  for (const double value : v) reduction += value * value;
  const double variance =
      std::max(options_.signal_variance + options_.noise_variance - reduction, 0.0);
  return {mean, std::sqrt(variance)};
}

double expected_improvement(double mean, double stddev, double best) {
  const double delta = mean - best;
  if (stddev <= 1e-12) return std::max(delta, 0.0);
  const double z = delta / stddev;
  return delta * normal_cdf(z) + stddev * normal_pdf(z);
}

}  // namespace saga::bo
