#include "harness/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace saga::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Rejects contradictory arrival options before any thread starts.
void check_arrival(const LoadOptions& options) {
  if ((options.arrival == Arrival::kPoisson ||
       options.arrival == Arrival::kBursty) &&
      options.offered_rps <= 0.0) {
    throw std::invalid_argument(
        "run_load: open-loop arrivals require offered_rps > 0");
  }
  if (options.arrival != Arrival::kBursty) return;
  if (!(options.burst_period_s > 0.0)) {
    throw std::invalid_argument("run_load: burst_period_s must be positive");
  }
  if (!(options.burst_duty > 0.0) || !(options.burst_duty < 1.0)) {
    throw std::invalid_argument("run_load: burst_duty must be in (0, 1)");
  }
  if (!(options.burst_peak >= 1.0)) {
    throw std::invalid_argument("run_load: burst_peak must be >= 1");
  }
  if (options.burst_peak * options.burst_duty > 1.0) {
    throw std::invalid_argument(
        "run_load: burst_peak * burst_duty must be <= 1 (the off phase "
        "cannot have a negative rate)");
  }
}

/// Advances time `t_s` to the next arrival of a square-wave-modulated
/// Poisson process with long-run mean `mean_rate`: the instantaneous rate
/// is burst_peak x mean for the first burst_duty of every period and the
/// complementary off rate for the rest. `exp_deviate` is a unit-exponential
/// draw; it is spent against the integrated rate piecewise per phase, which
/// is exactly inverse-transform sampling of a piecewise-constant-rate
/// process (the memoryless property lets the remainder carry across phase
/// boundaries unchanged). An off rate of zero (burst_peak * burst_duty ==
/// 1) simply fast-forwards through the silent phase.
double next_bursty_arrival(double t_s, double exp_deviate, double mean_rate,
                           const LoadOptions& options) {
  if (exp_deviate <= 0.0) return t_s;
  const double period = options.burst_period_s;
  const double on_len = period * options.burst_duty;
  const double peak_rate = mean_rate * options.burst_peak;
  const double off_rate = mean_rate *
                          (1.0 - options.burst_peak * options.burst_duty) /
                          (1.0 - options.burst_duty);
  double remaining = exp_deviate;
  for (;;) {
    const double phase = std::fmod(t_s, period);
    const bool on = phase < on_len;
    const double rate = on ? peak_rate : off_rate;
    const double span = (on ? on_len : period) - phase;
    if (rate > 0.0 && rate * span >= remaining) {
      return t_s + remaining / rate;
    }
    remaining -= rate * span;
    t_s += span;
  }
}

/// One client's worth of traffic against `submit`. Closed-loop waits for
/// each result before the next request; open-loop submits on a Poisson
/// schedule and collects results afterwards (latency is stamped inside the
/// engine at fulfilment, so deferred collection does not inflate it).
template <typename SubmitFn>
void run_client(SubmitFn&& submit, const LoadOptions& options,
                std::uint64_t client_seed, std::int64_t window_values,
                std::vector<double>& latencies, std::uint64_t& rejected,
                std::uint64_t& errors) {
  util::Rng rng(client_seed);
  const Tensor window = Tensor::randn({window_values}, rng);
  latencies.reserve(options.per_client);

  const bool open_loop =
      options.arrival == Arrival::kAuto
          ? options.offered_rps > 0.0
          : true;  // kPoisson/kBursty validated to have offered_rps > 0
  if (!open_loop) {
    for (std::size_t r = 0; r < options.per_client; ++r) {
      try {
        ResponseHandle handle = submit(window.data(), options.request);
        (void)handle.get();
        latencies.push_back(handle.latency_ms());
      } catch (const QueueFullError&) {
        ++rejected;
      } catch (const std::exception&) {
        // Engine-side inference failure delivered through the promise: the
        // report counts it; a load run must not terminate the process.
        ++errors;
      }
    }
    return;
  }

  // Open loop: inter-arrival gaps at this client's share of the offered
  // rate — exponential for Poisson, piecewise-exponential against the
  // square wave for bursty (every client runs the same phase alignment, so
  // the per-client processes superpose into one fleet-wide burst). Arrival
  // times are computed from the schedule origin so a slow submission does
  // not shift later arrivals (no coordinated omission).
  const double rate =
      options.offered_rps / static_cast<double>(options.clients);
  const bool bursty = options.arrival == Arrival::kBursty;
  std::vector<ResponseHandle> pending;
  pending.reserve(options.per_client);
  const Clock::time_point origin = Clock::now();
  double arrival_s = 0.0;
  for (std::size_t r = 0; r < options.per_client; ++r) {
    const double deviate = -std::log(1.0 - rng.uniform(0.0, 1.0));
    arrival_s = bursty
                    ? next_bursty_arrival(arrival_s, deviate, rate, options)
                    : arrival_s + deviate / rate;
    std::this_thread::sleep_until(
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(arrival_s)));
    try {
      pending.push_back(submit(window.data(), options.request));
    } catch (const QueueFullError&) {
      ++rejected;
    }
  }
  for (ResponseHandle& handle : pending) {
    try {
      (void)handle.get();
      latencies.push_back(handle.latency_ms());
    } catch (const std::exception&) {
      ++errors;
    }
  }
}

template <typename SubmitFn>
LoadReport run_load_impl(SubmitFn&& submit, std::int64_t window_values,
                         const LoadOptions& options) {
  check_arrival(options);
  std::vector<std::vector<double>> latencies(options.clients);
  std::vector<std::uint64_t> rejected(options.clients, 0);
  std::vector<std::uint64_t> errors(options.clients, 0);
  std::vector<std::thread> workers;
  workers.reserve(options.clients);
  const auto start = Clock::now();
  for (std::size_t w = 0; w < options.clients; ++w) {
    workers.emplace_back([&, w] {
      run_client(submit, options, options.seed + w, window_values,
                 latencies[w], rejected[w], errors[w]);
    });
  }
  for (auto& worker : workers) worker.join();

  LoadReport report;
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  report.offered_rps = options.offered_rps > 0.0 ? options.offered_rps : 0.0;
  for (std::size_t w = 0; w < options.clients; ++w) {
    report.latencies_ms.insert(report.latencies_ms.end(),
                               latencies[w].begin(), latencies[w].end());
    report.rejected += rejected[w];
    report.errors += errors[w];
  }
  std::sort(report.latencies_ms.begin(), report.latencies_ms.end());
  for (const double ms : report.latencies_ms) report.latency_hist.record(ms);
  return report;
}

}  // namespace

LoadReport run_load(Engine& engine, const LoadOptions& options) {
  const std::int64_t values =
      engine.artifact().window_length() * engine.artifact().channels();
  return run_load_impl(
      [&engine](std::span<const float> window, RequestOptions request) {
        return engine.submit(window, request);
      },
      values, options);
}

LoadReport run_load(Router& router, const LoadOptions& options) {
  const std::int64_t values =
      router.artifact().window_length() * router.artifact().channels();
  return run_load_impl(
      [&router](std::span<const float> window, RequestOptions request) {
        return router.submit(window, request);
      },
      values, options);
}

}  // namespace saga::serve
