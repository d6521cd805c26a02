// Prints which kernel every SIMD family (fp32 GEMM, int8 GEMM, eltwise)
// dispatches to on this host, and the CPU features behind the choice. CI
// runs this after every build so logs show whether the SIMD kernels or the
// scalar fallbacks were exercised by the test suite.
#include <iostream>
#include <utility>

#include "quant/quant.hpp"
#include "tensor/eltwise/eltwise.hpp"
#include "tensor/gemm/gemm.hpp"
#include "tensor/gemm/gemm_s8.hpp"
#include "util/dispatch.hpp"

int main() {
  namespace gemm = saga::gemm;
  namespace eltwise = saga::eltwise;
  using saga::util::CpuFeature;

  std::cout << "gemm dispatch kernel: " << gemm::kernel_name() << "\n";
  std::cout << "available kernels:";
  for (const gemm::Kernel k : gemm::available_kernels()) {
    std::cout << " " << gemm::kernel_name(k);
  }
  std::cout << "\n";

  std::cout << "int8 gemm dispatch kernel: " << gemm::int8_kernel_name()
            << "\n";
  std::cout << "available int8 kernels:";
  for (const gemm::Int8Kernel k : gemm::available_int8_kernels()) {
    std::cout << " " << gemm::int8_kernel_name(k);
  }
  std::cout << "\n";
  std::cout << "preferred activation encoding: "
            << saga::quant::act_encoding_name(
                   saga::quant::preferred_act_encoding())
            << " (8-bit requires a vpdpbusd kernel; see quant.hpp)\n";

  std::cout << "eltwise dispatch kernel: " << eltwise::kernel_name() << "\n";
  std::cout << "available eltwise kernels:";
  for (const eltwise::Kernel k : eltwise::available_kernels()) {
    std::cout << " " << eltwise::kernel_name(k);
  }
  std::cout << "\n";

  // Raw probes: they ignore SAGA_FORCE_SCALAR, so a scalar dispatch line on
  // a host that reports the features is visibly a pin, not a missing ISA.
  const std::pair<CpuFeature, const char*> features[] = {
      {CpuFeature::kAvx2, "avx2"},
      {CpuFeature::kFma, "fma"},
      {CpuFeature::kAvx512Vl, "avx512vl"},
      {CpuFeature::kAvxVnni, "avx-vnni"},
      {CpuFeature::kAvx512Vnni, "avx512-vnni"}};
  std::cout << "cpu features:";
  for (const auto& [feature, name] : features) {
    std::cout << " " << name << "="
              << (saga::util::cpu_has(feature) ? "yes" : "no");
  }
  std::cout << "\n";
  return 0;
}
