// Minimal work-stealing-free thread pool used to parallelize matmul rows and
// per-sample preprocessing. Tasks never share mutable state; callers join via
// parallel_for before reading results, so no further synchronization is
// needed on the data itself.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace saga::util {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means one per CPU in the calling thread's
  /// affinity mask (std::thread::hardware_concurrency() where there is none).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(i) for i in [begin, end), splitting the range into contiguous
  /// chunks across the pool. Blocks until every chunk completes. Exceptions
  /// from fn propagate to the caller (first one wins).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Process-wide pool (lazily constructed). Kept as a function-local static
  /// per C++ Core Guidelines I.22 to avoid global-init order issues.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Convenience wrapper over ThreadPool::global().parallel_for. Falls back to
/// a serial loop for tiny ranges where dispatch overhead dominates.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1);

}  // namespace saga::util
