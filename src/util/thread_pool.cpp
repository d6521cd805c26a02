#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

#if defined(__linux__)
#include <sched.h>
#endif

namespace saga::util {

namespace {
// Set while a pool worker is executing a task. Nested parallel_for calls from
// inside a worker run serially, which avoids the classic deadlock where every
// worker blocks waiting on sub-tasks that are queued behind them.
thread_local bool t_in_pool_worker = false;

// CPUs the calling thread may run on: its affinity mask where the OS gives
// one (so `taskset -c 1` means one worker), else the hardware's count.
std::size_t usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
#endif
  return std::thread::hardware_concurrency();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads != 0 ? threads : usable_cpus();
  n = std::max<std::size_t>(n, 1);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    t_in_pool_worker = true;
    task();
    t_in_pool_worker = false;
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  const std::size_t chunks = std::min(total, workers_.size());
  if (chunks <= 1 || t_in_pool_worker) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // All of this lives on the caller's stack. The last worker therefore
  // decrements `remaining` and notifies while holding done_mutex: the caller
  // cannot observe zero — and return, ending these objects' lifetimes —
  // until that worker has released the mutex and touches nothing here again.
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::mutex done_mutex;
  std::size_t remaining = chunks;  // guarded by done_mutex
  std::condition_variable done_cv;

  const std::size_t chunk_size = (total + chunks - 1) / chunks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = begin + c * chunk_size;
      const std::size_t hi = std::min(end, lo + chunk_size);
      tasks_.push([&, lo, hi] {
        try {
          for (std::size_t i = lo; i < hi; ++i) fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> elock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        std::lock_guard<std::mutex> dlock(done_mutex);
        if (--remaining == 0) done_cv.notify_all();
      });
    }
  }
  cv_.notify_all();

  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  if (begin >= end) return;
  if (end - begin <= grain) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  ThreadPool::global().parallel_for(begin, end, fn);
}

}  // namespace saga::util
