// Thread-local gradient-recording switch (mirrors torch.no_grad()).
// Evaluation paths wrap themselves in NoGradGuard so no tape is built.
#pragma once

namespace saga {

/// True when autograd nodes should be recorded for new operations.
bool grad_enabled() noexcept;

/// RAII guard that disables gradient recording on this thread.
class NoGradGuard {
 public:
  NoGradGuard() noexcept;
  ~NoGradGuard() noexcept;
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

}  // namespace saga
