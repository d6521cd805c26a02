// Gaussian-process regression (paper §VI-A): the performance model M_P that
// maps pre-training-task weights to downstream validation performance.
// RBF kernel, exact inference via Cholesky factorization (trial counts are
// tens, so O(n^3) is negligible). Double precision throughout — this module
// deliberately does not use the float autograd tensors.
//
// Consumes: (weight-vector, validation-performance) observations from LWS
// trials. Produces: posterior mean/stddev per candidate, fed to
// expected_improvement. fit() and predict() must not race; LWS calls them
// from a single thread.
#pragma once

#include <cstdint>
#include <vector>

namespace saga::bo {

class GaussianProcess {
 public:
  struct Options {
    double length_scale = 0.3;     // RBF l; inputs live in [0,1]^d
    double signal_variance = 1.0;  // sigma_f^2
    double noise_variance = 1e-4;  // sigma_n^2 (jitter + observation noise)
    /// When true, length_scale is replaced by the median pairwise distance
    /// of the training inputs (a standard heuristic) if that is positive.
    bool median_heuristic = true;
  };

  explicit GaussianProcess(Options options);
  GaussianProcess() : GaussianProcess(Options{}) {}

  /// Fits the posterior to inputs X (n rows, equal dims) and targets y.
  void fit(std::vector<std::vector<double>> inputs, std::vector<double> targets);

  bool fitted() const noexcept { return !inputs_.empty(); }
  std::size_t num_observations() const noexcept { return inputs_.size(); }

  struct Prediction {
    double mean = 0.0;
    double stddev = 0.0;
  };

  /// Posterior mean/stddev at a query point.
  Prediction predict(const std::vector<double>& x) const;

 private:
  double kernel(const std::vector<double>& a, const std::vector<double>& b) const;

  Options options_;
  double effective_length_scale_ = 0.3;
  std::vector<std::vector<double>> inputs_;
  std::vector<double> centered_targets_;
  double target_mean_ = 0.0;
  std::vector<double> cholesky_;  // lower-triangular L, row-major [n*n]
  std::vector<double> alpha_;     // K^{-1} (y - mean)
};

/// Expected Improvement for maximization (paper Eq. 9):
/// EI = (mu - best) Phi(z) + sigma phi(z), z = (mu - best) / sigma.
double expected_improvement(double mean, double stddev, double best);

}  // namespace saga::bo
