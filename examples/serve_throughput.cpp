// Load generator for the serve layer: N client threads drive an Engine (or,
// with SAGA_SERVE_SHARDS > 1, a sharded Router) through the async submit()
// API and we report throughput, latency percentiles, backpressure rejections
// and how well the dispatcher coalesced requests into micro-batches. This is
// the interactive companion to bench_serve_throughput (which sweeps batch
// size, batch window and shard count).
//
// Knobs: SAGA_SERVE_CLIENTS (default 4), SAGA_SERVE_REQUESTS per client
// (default 50), SAGA_SERVE_BATCH max batch size (default 16),
// SAGA_SERVE_WINDOW_US dispatcher batch window (default 0 = greedy),
// SAGA_SERVE_DEPTH bounded queue depth (default 1024), SAGA_SERVE_SHARDS
// Router shard count (default 1 = plain Engine), SAGA_SERVE_RPS offered
// open-loop Poisson load in req/s (default 0 = closed loop),
// SAGA_SERVE_BULK=1 to tag requests Priority::kBulk,
// SAGA_SERVE_BURSTY=1 for square-wave bursty arrivals instead of Poisson
// (requires SAGA_SERVE_RPS > 0; period/duty/peak fixed at 0.5 s/0.25/3x),
// SAGA_SERVE_STEAL=0 to disable cross-shard work stealing,
// SAGA_SERVE_HIST=1 to print the fleet histograms after the run.
#include <cstdio>

#include "core/saga.hpp"
#include "harness/loadgen.hpp"
#include "util/env.hpp"

using namespace saga;

int main() {
  serve::LoadOptions load;
  load.clients = static_cast<std::size_t>(util::env_int("SAGA_SERVE_CLIENTS", 4));
  load.per_client =
      static_cast<std::size_t>(util::env_int("SAGA_SERVE_REQUESTS", 50));
  load.seed = 100;
  load.offered_rps = static_cast<double>(util::env_int("SAGA_SERVE_RPS", 0));
  if (util::env_int("SAGA_SERVE_BULK", 0) != 0) {
    load.request.priority = serve::Priority::kBulk;
  }
  if (util::env_int("SAGA_SERVE_BURSTY", 0) != 0) {
    load.arrival = serve::Arrival::kBursty;  // burst_* keep their defaults
  }

  serve::RouterConfig router_config;
  router_config.shards =
      static_cast<std::size_t>(util::env_int("SAGA_SERVE_SHARDS", 1));
  router_config.work_stealing = util::env_int("SAGA_SERVE_STEAL", 1) != 0;
  auto& engine_config = router_config.engine;
  engine_config.max_batch_size = util::env_int("SAGA_SERVE_BATCH", 16);
  engine_config.batch_window_us = util::env_int("SAGA_SERVE_WINDOW_US", 0);
  engine_config.max_queue_depth = util::env_int("SAGA_SERVE_DEPTH", 1024);

  const char* arrivals = load.offered_rps <= 0.0 ? "closed-loop"
                         : load.arrival == serve::Arrival::kBursty
                             ? "open-loop bursty"
                             : "open-loop Poisson";
  std::printf(
      "== serve load generator: %zu clients x %zu requests, %s arrivals ==\n"
      "   shards %zu, max batch %lld, batch window %lld us, queue depth %lld, "
      "stealing %s\n",
      load.clients, load.per_client, arrivals, router_config.shards,
      static_cast<long long>(engine_config.max_batch_size),
      static_cast<long long>(engine_config.batch_window_us),
      static_cast<long long>(engine_config.max_queue_depth),
      router_config.work_stealing && router_config.shards > 1 ? "on" : "off");

  // A throwaway trained model: untrained weights predict garbage, but the
  // serving cost is identical, and that is what we measure here.
  const data::Dataset dataset = data::generate_dataset(data::hhar_like(64));
  core::PipelineConfig config = core::fast_profile();
  config.finetune.epochs = 1;
  core::Pipeline pipeline(dataset, data::Task::kActivityRecognition, config);
  (void)pipeline.run(core::Method::kNoPretrain, 0.5);
  const serve::Artifact artifact = serve::Artifact::from_pipeline(pipeline);

  serve::Router router(artifact, router_config);
  const serve::LoadReport report = serve::run_load(router, load);
  const auto stats = router.stats();
  if (load.offered_rps > 0.0) {
    std::printf("offered %.1f req/s, achieved %.1f req/s (%zu completed, "
                "%llu rejected by backpressure)\n",
                report.offered_rps, report.requests_per_second(),
                report.latencies_ms.size(),
                static_cast<unsigned long long>(report.rejected));
  } else {
    std::printf("%zu predictions in %.2f s -> %.1f req/s (%llu rejected)\n",
                report.latencies_ms.size(), report.wall_seconds,
                report.requests_per_second(),
                static_cast<unsigned long long>(report.rejected));
  }
  std::printf("latency: %s\n", report.latency_summary().c_str());
  std::printf("dispatch: %llu forward passes, mean batch %.2f, largest %llu\n",
              static_cast<unsigned long long>(stats.batches), stats.mean_batch(),
              static_cast<unsigned long long>(stats.largest_batch));
  if (router_config.shards > 1) {
    const auto per_shard = router.shard_stats();
    for (std::size_t s = 0; s < per_shard.size(); ++s) {
      std::printf("  shard %zu: %llu requests, mean batch %.2f, stolen %llu, "
                  "donated %llu\n",
                  s, static_cast<unsigned long long>(per_shard[s].requests),
                  per_shard[s].mean_batch(),
                  static_cast<unsigned long long>(per_shard[s].stolen),
                  static_cast<unsigned long long>(per_shard[s].donated));
    }
  }
  if (util::env_int("SAGA_SERVE_HIST", 0) != 0) {
    std::printf("%s",
                stats.batch_latency_ms_hist.format("batch latency", "ms")
                    .c_str());
    std::printf("%s",
                stats.batch_size_hist.format("batch size", "reqs").c_str());
    std::printf("%s",
                stats.queue_depth_hist.format("queue depth at launch", "reqs")
                    .c_str());
    std::printf("%s", report.latency_hist
                          .format("client-side request latency", "ms")
                          .c_str());
  }
  return 0;
}
