// The kernel-dispatch contract (util/dispatch.hpp), pinned once over a fake
// kernel family — the real families (fp32 gemm, int8 gemm_s8, eltwise) are
// each just a util::KernelTable — plus a cross-family check that every
// family honours SAGA_FORCE_SCALAR. The test_dispatch_forced_scalar ctest
// entry re-runs this binary with the pin set.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "tensor/eltwise/eltwise.hpp"
#include "tensor/gemm/gemm.hpp"
#include "tensor/gemm/gemm_s8.hpp"
#include "util/dispatch.hpp"

namespace saga::util {
namespace {

enum class Fake { kAuto, kScalar, kWide, kMissing, kUnbuilt, kWidest };

using FakeTable = KernelTable<Fake, int>;
using FakePin = KernelPin<Fake>;

// The table's rows, lowest priority first. kMissing (the CPU lacks it) and
// kUnbuilt (null impl: the build left it out) sit between two available
// kernels, so priority resolution has to skip them.
using Row = FakeTable::Entry;
constexpr Row kRows[] = {{Fake::kScalar, "scalar", 10, true},
                         {Fake::kWide, "wide", 20, true},
                         {Fake::kMissing, "missing", 30, false},
                         {Fake::kUnbuilt, "unbuilt", 0, true},
                         {Fake::kWidest, "widest", 40, true}};

const FakeTable& fake_table() {
  static const FakeTable table{kRows[0], kRows[1], kRows[2], kRows[3],
                               kRows[4]};
  return table;
}

// Built, supported, and not removed by SAGA_FORCE_SCALAR (which keeps only
// the first row).
bool available(const Row& row) {
  return row.kernel == Fake::kScalar ||
         (row.impl != 0 && row.supported && !force_scalar());
}

TEST(KernelTable, ResolvesToTheMostPreferredAvailableKernel) {
  const FakeTable& table = fake_table();
  std::vector<Fake> expected;
  Fake best = Fake::kAuto;
  for (const Row& row : kRows) {
    EXPECT_EQ(table.name(row.kernel), row.name);
    if (!available(row)) continue;
    expected.push_back(row.kernel);
    best = row.kernel;
  }
  EXPECT_EQ(table.available(), expected);
  EXPECT_EQ(table.resolve(), best);
  EXPECT_EQ(table.resolve(Fake::kAuto), best);
  EXPECT_EQ(best, force_scalar() ? Fake::kScalar : Fake::kWidest);
  EXPECT_EQ(table.name(), force_scalar() ? "scalar" : "widest");
  EXPECT_EQ(table.impl(), force_scalar() ? 10 : 40);
}

TEST(KernelTable, NestedPinsRestoreThePreviousPin) {
  const FakeTable& table = fake_table();
  const Fake ambient = table.resolve();
  for (const Row& outer : kRows) {
    if (!available(outer)) continue;
    const FakePin outer_pin(table, outer.kernel);
    for (const Row& inner : kRows) {
      if (!available(inner)) continue;
      {
        const FakePin inner_pin(table, inner.kernel);
        EXPECT_EQ(table.resolve(), inner.kernel);
        EXPECT_EQ(table.name(), inner.name);
        EXPECT_EQ(table.impl(), inner.impl);
        // An explicit kernel beats any pin.
        EXPECT_EQ(table.resolve(Fake::kScalar), Fake::kScalar);
        {
          const FakePin unpin(table, Fake::kAuto);
          EXPECT_EQ(table.resolve(), ambient);
        }
        EXPECT_EQ(table.resolve(), inner.kernel);
      }
      EXPECT_EQ(table.resolve(), outer.kernel) << "inner pin not restored";
    }
  }
  EXPECT_EQ(table.resolve(), ambient);
}

TEST(KernelTable, PinningAnUnavailableKernelThrows) {
  const FakeTable& table = fake_table();
  const Fake ambient = table.resolve();
  for (const Row& row : kRows) {
    if (available(row)) {
      EXPECT_NO_THROW(table.check(row.kernel)) << row.name;
      continue;
    }
    EXPECT_THROW(table.check(row.kernel), std::runtime_error) << row.name;
    EXPECT_THROW(table.impl(row.kernel), std::runtime_error) << row.name;
    EXPECT_THROW(FakePin pin(table, row.kernel), std::runtime_error)
        << row.name;
    EXPECT_EQ(table.resolve(), ambient) << "a refused pin must not stick";
  }
}

// Under SAGA_FORCE_SCALAR=1 (the test_dispatch_forced_scalar ctest entry)
// every family offers only its scalar kernel. test_gemm_kernels and
// test_quant pin the fp32 and int8 refusals of SIMD kernels; eltwise's is
// pinned here.
TEST(Dispatch, ForceScalarPinsEveryFamily) {
  const char* forced = std::getenv("SAGA_FORCE_SCALAR");
  if (forced == nullptr || std::atoll(forced) == 0) {
    GTEST_SKIP() << "runs under SAGA_FORCE_SCALAR=1";
  }
  EXPECT_TRUE(force_scalar());
  EXPECT_EQ(gemm::available_kernels(),
            std::vector<gemm::Kernel>{gemm::Kernel::kScalar});
  EXPECT_EQ(gemm::available_int8_kernels(),
            std::vector<gemm::Int8Kernel>{gemm::Int8Kernel::kScalar});
  EXPECT_EQ(eltwise::available_kernels(),
            std::vector<eltwise::Kernel>{eltwise::Kernel::kScalar});
  EXPECT_EQ(eltwise::kernel_name(), "scalar");
  EXPECT_THROW(eltwise::ForceKernelGuard pin(eltwise::Kernel::kAvx2),
               std::runtime_error);
  EXPECT_EQ(eltwise::kernel_name(), "scalar");
}

}  // namespace
}  // namespace saga::util
