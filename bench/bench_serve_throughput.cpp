// Serving-path benchmark: latency and throughput of the async serve layer.
// Four sweeps over one trained model:
//   1. closed-loop max_batch sweep        (the pre-async capacity curve)
//   2. open-loop batch-window sweep       at fixed offered Poisson load —
//      shows batch_window_us > 0 raising mean batch size and throughput
//      versus greedy batching at the cost of added p50 wait
//   3. closed-loop Router shard sweep     (multi-Engine scaling)
//   4. open-loop bursty capacity curve    square-wave-modulated Poisson
//      against a two-shard Router with cross-shard work stealing toggled —
//      the tail (p99/p99.9) is where stealing shows up, plus the fleet
//      histogram export (batch latency / batch size / queue depth).
// Complements bench_fig13_latency (single-window, unbatched, per-device
// scaling) by measuring the ROADMAP's heavy-traffic scenario.
//
// Knobs: SAGA_SERVE_CLIENTS (default 8), SAGA_SERVE_REQUESTS per client
// (default 40), SAGA_SERVE_RPS offered open-loop load for sweep 2
// (default 300), SAGA_SERVE_SMOKE=1 for a seconds-budget CI smoke run
// (tiny load, one setting per sweep — exercises every code path, proves
// nothing about capacity).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "harness/loadgen.hpp"

using namespace saga;

int main() {
  const bool smoke = util::env_int("SAGA_SERVE_SMOKE", 0) != 0;
  const auto clients = static_cast<std::size_t>(
      util::env_int("SAGA_SERVE_CLIENTS", smoke ? 2 : 8));
  const auto per_client = static_cast<std::size_t>(
      util::env_int("SAGA_SERVE_REQUESTS", smoke ? 6 : 40));
  const auto offered_rps =
      static_cast<double>(util::env_int("SAGA_SERVE_RPS", 300));

  std::printf("== bench_serve_throughput: %zu clients x %zu requests per "
              "setting%s ==\n\n",
              clients, per_client, smoke ? " (smoke mode)" : "");

  // One tiny trained model serves the whole sweep; training budget is
  // irrelevant to serving cost.
  const data::Dataset dataset = data::generate_dataset(data::hhar_like(64));
  core::PipelineConfig config = bench::bench_profile();
  config.finetune.epochs = 1;
  core::Pipeline pipeline(dataset, data::Task::kActivityRecognition, config);
  (void)pipeline.run(core::Method::kNoPretrain, 0.5);
  const serve::Artifact artifact = serve::Artifact::from_pipeline(pipeline);

  serve::LoadOptions load;
  load.clients = clients;
  load.per_client = per_client;
  load.seed = 7;

  {
    std::printf("-- closed loop: max_batch sweep (greedy dispatcher) --\n");
    util::Table table({"max_batch", "req/s", "p50 ms", "p95 ms", "mean batch"});
    const std::vector<std::int64_t> batches =
        smoke ? std::vector<std::int64_t>{8}
              : std::vector<std::int64_t>{1, 2, 4, 8, 16, 32};
    for (const std::int64_t max_batch : batches) {
      serve::EngineConfig engine_config;
      engine_config.max_batch_size = max_batch;
      serve::Engine engine(artifact, engine_config);
      const serve::LoadReport report = serve::run_load(engine, load);
      table.add_row({std::to_string(max_batch),
                     util::Table::fmt(report.requests_per_second(), 1),
                     util::Table::fmt(report.percentile_ms(0.50), 2),
                     util::Table::fmt(report.percentile_ms(0.95), 2),
                     util::Table::fmt(engine.stats().mean_batch(), 2)});
    }
    table.print();
  }

  {
    std::printf("\n-- open loop: batch-window sweep at %.0f req/s offered "
                "(Poisson) --\n",
                offered_rps);
    serve::LoadOptions open = load;
    open.offered_rps = offered_rps;
    util::Table table({"window us", "req/s", "p50 ms", "p95 ms", "p99 ms",
                       "mean batch", "rejected"});
    const std::vector<std::int64_t> windows =
        smoke ? std::vector<std::int64_t>{2000}
              : std::vector<std::int64_t>{0, 1000, 2000, 5000, 20000};
    for (const std::int64_t window_us : windows) {
      serve::EngineConfig engine_config;
      engine_config.max_batch_size = 16;
      engine_config.batch_window_us = window_us;
      serve::Engine engine(artifact, engine_config);
      const serve::LoadReport report = serve::run_load(engine, open);
      table.add_row({std::to_string(window_us),
                     util::Table::fmt(report.requests_per_second(), 1),
                     util::Table::fmt(report.percentile_ms(0.50), 2),
                     util::Table::fmt(report.percentile_ms(0.95), 2),
                     util::Table::fmt(report.percentile_ms(0.99), 2),
                     util::Table::fmt(engine.stats().mean_batch(), 2),
                     std::to_string(report.rejected)});
    }
    table.print();
  }

  {
    std::printf("\n-- closed loop: Router shard sweep (max_batch 16) --\n");
    util::Table table({"shards", "req/s", "p50 ms", "p95 ms", "mean batch"});
    const std::vector<std::size_t> shard_counts =
        smoke ? std::vector<std::size_t>{2}
              : std::vector<std::size_t>{1, 2, 4};
    for (const std::size_t shards : shard_counts) {
      serve::RouterConfig router_config;
      router_config.shards = shards;
      router_config.engine.max_batch_size = 16;
      serve::Router router(artifact, router_config);
      const serve::LoadReport report = serve::run_load(router, load);
      table.add_row({std::to_string(shards),
                     util::Table::fmt(report.requests_per_second(), 1),
                     util::Table::fmt(report.percentile_ms(0.50), 2),
                     util::Table::fmt(report.percentile_ms(0.95), 2),
                     util::Table::fmt(router.stats().mean_batch(), 2)});
    }
    table.print();
  }

  {
    std::printf("\n-- open loop: bursty capacity curve, 2 shards "
                "(period 0.5 s, duty 0.25, peak 3x, steal threshold 1) --\n");
    util::Table table({"offered", "steal", "req/s", "p50 ms", "p99 ms",
                       "p99.9 ms", "stolen", "rejected"});
    const std::vector<double> rates =
        smoke ? std::vector<double>{200.0}
              : std::vector<double>{150.0, 300.0, 600.0};
    serve::EngineStats last_stats;
    serve::LoadReport last_report;
    for (const double rps : rates) {
      for (const bool steal : {false, true}) {
        serve::RouterConfig router_config;
        router_config.shards = 2;
        router_config.engine.max_batch_size = 16;
        router_config.engine.batch_window_us = 2000;
        router_config.work_stealing = steal;
        // Auto threshold (= max_batch) is tuned for many shards; with two
        // shards and a balancing submit() the skew comes from burst
        // randomness and batch-window parking, so steal as early as
        // possible to keep the idle sibling fed.
        router_config.steal_threshold = 1;
        serve::Router router(artifact, router_config);
        serve::LoadOptions bursty = load;
        bursty.offered_rps = rps;
        bursty.arrival = serve::Arrival::kBursty;
        bursty.burst_period_s = 0.5;
        bursty.burst_duty = 0.25;
        bursty.burst_peak = 3.0;
        const serve::LoadReport report = serve::run_load(router, bursty);
        const serve::EngineStats stats = router.stats();
        table.add_row({util::Table::fmt(rps, 0), steal ? "on" : "off",
                       util::Table::fmt(report.requests_per_second(), 1),
                       util::Table::fmt(report.percentile_ms(0.50), 2),
                       util::Table::fmt(report.percentile_ms(0.99), 2),
                       util::Table::fmt(report.percentile_ms(0.999), 2),
                       std::to_string(stats.stolen),
                       std::to_string(report.rejected)});
        last_stats = stats;
        last_report = report;
      }
    }
    table.print();

    // The histogram export, end to end: per-shard EngineStats histograms
    // merged by the Router, plus the loadgen's client-side latency
    // distribution over the same run.
    std::printf("\n-- fleet histograms (last bursty setting, steal on) --\n");
    std::printf("%s", last_stats.batch_latency_ms_hist
                          .format("batch latency", "ms")
                          .c_str());
    std::printf("%s",
                last_stats.batch_size_hist.format("batch size", "reqs").c_str());
    std::printf(
        "%s",
        last_stats.queue_depth_hist.format("queue depth at launch", "reqs")
            .c_str());
    std::printf("%s", last_report.latency_hist
                          .format("client-side request latency", "ms")
                          .c_str());
  }

  std::printf(
      "\nexpected shape: closed-loop throughput rises with max_batch until\n"
      "the dispatcher outpaces the clients; in the open-loop sweep a larger\n"
      "batch window raises mean batch (amortizing per-pass overhead) while\n"
      "adding bounded p50 wait; shard scaling tracks available cores; in\n"
      "the bursty sweep work stealing drains the hot shard's burst onto\n"
      "its idle sibling, narrowing the p99/p99.9 gap versus steal-off\n"
      "(on a single-core host the shards time-slice one CPU, so the\n"
      "rebalance shows up in the stolen column more than in the tail).\n");
  return 0;
}
