#include "tensor/reduce.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/shape_ops.hpp"

namespace saga {

Tensor sum(const Tensor& a_in) {
  const Tensor a = contiguous(a_in);
  double acc = 0.0;
  for (const float v : a.data()) acc += v;
  return detail::make_result({1}, {static_cast<float>(acc)}, {&a}, "sum", [&] {
    return [a_impl = a.impl()](const TensorImpl& o) {
      if (!detail::wants_grad(*a_impl)) return;
      float* ga = a_impl->grad_ptr();
      const float g = o.grad_ptr()[0];
      const auto n = static_cast<std::size_t>(a_impl->numel());
      for (std::size_t i = 0; i < n; ++i) ga[i] += g;
    };
  });
}

Tensor mean(const Tensor& a_in) {
  const Tensor a = contiguous(a_in);
  const auto n = static_cast<double>(a.numel());
  double acc = 0.0;
  for (const float v : a.data()) acc += v;
  return detail::make_result({1}, {static_cast<float>(acc / n)}, {&a}, "mean",
                             [&] {
                               return [a_impl = a.impl(), n](const TensorImpl& o) {
                                 if (!detail::wants_grad(*a_impl)) return;
                                 float* ga = a_impl->grad_ptr();
                                 const float g = static_cast<float>(o.grad_ptr()[0] / n);
                                 const auto count = static_cast<std::size_t>(a_impl->numel());
                                 for (std::size_t i = 0; i < count; ++i) ga[i] += g;
                               };
                             });
}

Tensor log_softmax_lastdim(const Tensor& a_in) {
  const Tensor a = contiguous(a_in);
  const std::int64_t cols = a.size(-1);
  const std::int64_t rows = a.numel() / cols;
  std::vector<float> out(static_cast<std::size_t>(a.numel()));
  const float* src = a.data().data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = src + r * cols;
    float* y = out.data() + r * cols;
    float max_v = x[0];
    for (std::int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, x[c]);
    double denom = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) denom += std::exp(x[c] - max_v);
    const float lse = max_v + static_cast<float>(std::log(denom));
    for (std::int64_t c = 0; c < cols; ++c) y[c] = x[c] - lse;
  }
  return detail::make_result(a.shape(), std::move(out), {&a}, "log_softmax", [&] {
    return [a_impl = a.impl(), rows, cols](const TensorImpl& o) {
        if (!detail::wants_grad(*a_impl)) return;
        float* ga = a_impl->grad_ptr();
        const float* y = o.data_ptr();
        const float* go = o.grad_ptr();
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* yr = y + r * cols;
          const float* gr = go + r * cols;
          float* gar = ga + r * cols;
          double gsum = 0.0;
          for (std::int64_t c = 0; c < cols; ++c) gsum += gr[c];
          for (std::int64_t c = 0; c < cols; ++c) {
            gar[c] += gr[c] - std::exp(yr[c]) * static_cast<float>(gsum);
          }
        }
    };
  });
}

Tensor mean_over_time(const Tensor& x_in) {
  if (x_in.dim() != 3) throw std::invalid_argument("mean_over_time: expects [B,T,D]");
  const Tensor x = contiguous(x_in);
  const std::int64_t b = x.size(0);
  const std::int64_t t = x.size(1);
  const std::int64_t d = x.size(2);
  std::vector<float> out(static_cast<std::size_t>(b * d), 0.0F);
  const float* xd = x.data().data();
  for (std::int64_t i = 0; i < b; ++i) {
    for (std::int64_t s = 0; s < t; ++s) {
      const float* row = xd + (i * t + s) * d;
      float* orow = out.data() + i * d;
      for (std::int64_t c = 0; c < d; ++c) orow[c] += row[c];
    }
  }
  const float inv = 1.0F / static_cast<float>(t);
  for (auto& v : out) v *= inv;

  return detail::make_result({b, d}, std::move(out), {&x}, "mean_over_time", [&] {
    return [x_impl = x.impl(), b, t, d, inv](const TensorImpl& o) {
      if (!detail::wants_grad(*x_impl)) return;
      float* gx = x_impl->grad_ptr();
      const float* go = o.grad_ptr();
      for (std::int64_t i = 0; i < b; ++i) {
        const float* grow = go + i * d;
        for (std::int64_t s = 0; s < t; ++s) {
          float* gxr = gx + (i * t + s) * d;
          for (std::int64_t c = 0; c < d; ++c) gxr[c] += grow[c] * inv;
        }
      }
    };
  });
}

std::vector<std::int64_t> argmax_lastdim(const Tensor& a_in) {
  const Tensor a = contiguous(a_in);
  const std::int64_t cols = a.size(-1);
  const std::int64_t rows = a.numel() / cols;
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  const float* src = a.data().data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = src + r * cols;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < cols; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[static_cast<std::size_t>(r)] = best;
  }
  return out;
}

}  // namespace saga
