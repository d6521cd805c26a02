// Load generation for the serve layer: N client threads drive an Engine or
// a Router through the async submit() API and the per-request latencies come
// back as one sorted sample for percentile reporting. Used by
// examples/serve_throughput and bench/bench_serve_throughput so the two
// report on exactly the same workload.
//
// Three arrival disciplines:
//   closed-loop (offered_rps == 0)  each client issues its next request the
//       moment the previous one returns — measures capacity under a fixed
//       concurrency level.
//   open-loop Poisson (offered_rps > 0)  arrivals are a Poisson process at
//       the given aggregate rate, split evenly across clients; clients
//       submit on schedule WITHOUT waiting for results, so queueing delay
//       shows up in the latency sample instead of throttling the arrival
//       stream. This is the discipline that makes batch-window/deadline
//       knobs measurable: at fixed offered load, a larger window trades p50
//       for batch size.
//   open-loop bursty (Arrival::kBursty)  a square-wave-modulated Poisson
//       process — a diurnal/bursty trace in miniature: for burst_duty of
//       every burst_period_s the instantaneous rate is burst_peak x the
//       mean, and the off-phase rate is scaled down so the long-run mean
//       stays offered_rps. This is the workload that makes cross-shard work
//       stealing and deadline admission measurable: steady Poisson load
//       rarely skews queues enough to matter.
//
// Consumes: a running Engine or Router. Produces: a LoadReport (pure data;
// latency measured submission -> fulfilment inside the engine, so deferred
// result collection does not inflate it). QueueFullError rejections and
// engine-side inference errors are counted, not fatal. run_load blocks
// until every client thread has joined; the target outlives the call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/engine.hpp"
#include "serve/router.hpp"

namespace saga::serve {

/// Open-loop arrival process selection.
enum class Arrival : std::uint8_t {
  /// Poisson when offered_rps > 0, closed-loop otherwise (the historical
  /// behaviour — existing callers keep their discipline).
  kAuto = 0,
  /// Open-loop Poisson; requires offered_rps > 0.
  kPoisson = 1,
  /// Open-loop square-wave-modulated Poisson (see the burst_* knobs);
  /// requires offered_rps > 0.
  kBursty = 2,
};

struct LoadOptions {
  std::size_t clients = 4;
  std::size_t per_client = 50;
  std::uint64_t seed = 1;
  /// 0 = closed-loop. >0 = open-loop arrivals at this aggregate long-run
  /// mean requests/sec across all clients.
  double offered_rps = 0.0;
  /// Arrival discipline; kAuto preserves the offered_rps-driven choice.
  Arrival arrival = Arrival::kAuto;
  /// kBursty: length of one on/off cycle, in seconds. Must be positive.
  double burst_period_s = 2.0;
  /// kBursty: fraction of each period spent in the on (burst) phase; must
  /// be in (0, 1).
  double burst_duty = 0.25;
  /// kBursty: instantaneous rate during the on phase, as a multiple of the
  /// long-run mean. The off-phase rate is scaled down to keep the mean at
  /// offered_rps, which requires burst_peak >= 1 and
  /// burst_peak * burst_duty <= 1 (equality makes the off phase silent).
  double burst_peak = 3.0;
  /// Priority/deadline applied to every generated request.
  RequestOptions request;
};

struct LoadReport {
  std::vector<double> latencies_ms;  // one entry per completed request, sorted
  /// The same per-request latencies bucketed into the standard log-scale
  /// layout (Histogram::latency_ms), so a client-side distribution can sit
  /// next to the engine-side EngineStats histograms in one export.
  Histogram latency_hist = Histogram::latency_ms();
  double wall_seconds = 0.0;
  std::uint64_t rejected = 0;  // submissions refused by the bounded queue
  std::uint64_t errors = 0;    // requests that failed engine-side (rethrown
                               // from get()); counted, not fatal
  double offered_rps = 0.0;    // echo of the option (0 for closed-loop)

  double requests_per_second() const noexcept {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(latencies_ms.size()) / wall_seconds;
  }
  /// Latency at quantile `q` in [0, 1] (0 when no requests ran).
  double percentile_ms(double q) const noexcept;
  /// One line of the standard percentiles:
  /// "p50 a  p95 b  p99 c  p99.9 d  max e ms". The p99.9 entry is what makes
  /// tail regressions visible at loadgen sample sizes (a p99 over a few
  /// thousand requests hides the last handful of stragglers).
  std::string latency_summary() const;
};

/// Runs `options.clients` threads x `options.per_client` requests against
/// `engine` (or `router`); each thread uses an independent window seeded
/// from `options.seed`.
LoadReport run_load(Engine& engine, const LoadOptions& options);
LoadReport run_load(Router& router, const LoadOptions& options);

}  // namespace saga::serve
