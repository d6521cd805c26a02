// Load generation for the serve layer: N client threads drive an Engine or
// a Router through the async submit() API and the per-request latencies come
// back as one sorted sample for percentile reporting. Used by
// examples/serve_throughput, bench/bench_serve_throughput and
// tests/test_serve so they report on exactly the same workload. It is a
// harness, not part of the saga library: production never generates its own
// load, so it lives in the saga_harness target that those binaries link.
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

#include "serve/engine.hpp"
#include "serve/metrics.hpp"
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

/// Runs `options.clients` threads x `options.per_client` requests against
/// `engine` (or `router`); each thread uses an independent window seeded
/// from `options.seed`.
LoadReport run_load(Engine& engine, const LoadOptions& options);
LoadReport run_load(Router& router, const LoadOptions& options);

}  // namespace saga::serve
