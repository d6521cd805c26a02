// First-order optimizers. The paper trains with Adam, lr = 1e-3 (§VII-A1);
// SGD is provided for tests and ablations.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace saga::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  /// Applies one update from the accumulated gradients.
  virtual void step() = 0;
  /// Clears gradients of all managed parameters.
  void zero_grad();

  /// Rescales gradients so their global L2 norm is at most `max_norm`;
  /// returns the pre-clip norm.
  double clip_grad_norm(double max_norm);

 protected:
  std::vector<Tensor> params_;
};

class SGD : public Optimizer {
 public:
  SGD(std::vector<Tensor> params, double lr, double momentum = 0.0);
  void step() override;

 private:
  double lr_;
  double momentum_;
  std::vector<std::vector<float>> velocity_;
};

class Adam : public Optimizer {
 public:
  struct Options {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    double weight_decay = 0.0;
  };

  Adam(std::vector<Tensor> params, Options options);
  explicit Adam(std::vector<Tensor> params) : Adam(std::move(params), Options{}) {}
  void step() override;

 private:
  Options options_;
  std::int64_t t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace saga::nn
