#include "util/dispatch.hpp"

#include "util/env.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#define SAGA_X86_CPUID 1
#endif

namespace saga::util {

bool cpu_has(CpuFeature feature) {
#ifdef SAGA_X86_CPUID
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  switch (feature) {
    case CpuFeature::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case CpuFeature::kFma:
      return __builtin_cpu_supports("fma") != 0;
    case CpuFeature::kAvx512Vl:
      return __builtin_cpu_supports("avx512vl") != 0;
    // "avxvnni" is not a portable __builtin_cpu_supports token, so both VNNI
    // bits are read straight from CPUID.
    case CpuFeature::kAvxVnni:
      return __get_cpuid_count(7, 1, &eax, &ebx, &ecx, &edx) != 0 &&
             (eax & (1U << 4)) != 0;
    case CpuFeature::kAvx512Vnni:
      return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
             (ecx & (1U << 11)) != 0;
  }
#else
  (void)feature;
#endif
  return false;
}

bool force_scalar() {
  static const bool forced = env_int("SAGA_FORCE_SCALAR", 0) != 0;
  return forced;
}

}  // namespace saga::util
