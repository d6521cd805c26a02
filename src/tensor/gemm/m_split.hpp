// The row fan-out both GEMM drivers share. Threads split only M, so an
// output element's accumulation order never depends on the thread that
// computed it — which keeps fp32 bit-identical across thread counts for a
// fixed kernel (gemm.hpp); int8 is exact anyway. Internal to the gemm unit.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/thread_pool.hpp"

namespace saga::gemm::detail {

/// Products below this many multiply-adds run serially.
inline constexpr std::int64_t kParallelThreshold = 1 << 15;

/// Calls run_rows(lo, hi) over [0, m): once on the calling thread when
/// `parallel` is false, the product (`work` multiply-adds) is small, m is 1
/// or the pool has one thread; else as one contiguous row chunk per pool
/// thread.
template <class RunRows>
void split_m(std::int64_t m, std::int64_t work, bool parallel,
             const RunRows& run_rows) {
  util::ThreadPool& pool = util::ThreadPool::global();
  const auto threads = static_cast<std::int64_t>(pool.size());
  if (!parallel || work < kParallelThreshold || m == 1 || threads <= 1) {
    run_rows(std::int64_t{0}, m);
    return;
  }
  const std::int64_t chunk = (m + threads - 1) / threads;
  pool.parallel_for(0, static_cast<std::size_t>((m + chunk - 1) / chunk),
                    [&](std::size_t ci) {
                      const std::int64_t lo =
                          static_cast<std::int64_t>(ci) * chunk;
                      run_rows(lo, std::min(m, lo + chunk));
                    });
}

}  // namespace saga::gemm::detail
