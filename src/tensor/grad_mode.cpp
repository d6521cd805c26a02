#include "tensor/grad_mode.hpp"

namespace saga {

namespace {
thread_local bool t_grad_enabled = true;
}  // namespace

bool grad_enabled() noexcept { return t_grad_enabled; }

NoGradGuard::NoGradGuard() noexcept : previous_(t_grad_enabled) {
  t_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() noexcept { t_grad_enabled = previous_; }

}  // namespace saga
