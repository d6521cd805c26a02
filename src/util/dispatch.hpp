// saga::util dispatch — the one CPU-probe and kernel-dispatch mechanism
// behind every SIMD kernel family (fp32 gemm, int8 gemm_s8, eltwise).
//
// A family keeps only a KernelTable: its kernels from the portable scalar
// one up to the most preferred, each with a name, the implementation its
// driver calls through (null when the build left the kernel out), and
// whether this CPU can run it. kAuto resolves to the current thread's
// KernelPin if one is alive, else to the most preferred available kernel,
// picked once per process.
// SAGA_FORCE_SCALAR=1 (read once per process) leaves every family with only
// its scalar kernel, so a pinned run exercises no SIMD kernel of any family
// and refuses any SIMD request.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

namespace saga::util {

/// CPU features the kernel families gate on.
enum class CpuFeature { kAvx2, kFma, kAvx512Vl, kAvxVnni, kAvx512Vnni };

/// True when this CPU reports `feature`; always false off x86-64. kAvx2,
/// kFma and kAvx512Vl include the OS register-state check; kAvxVnni and
/// kAvx512Vnni are raw CPUID bits, so tables pair them with kAvx2 and
/// kAvx512Vl. Ignores SAGA_FORCE_SCALAR.
bool cpu_has(CpuFeature feature);

/// True when SAGA_FORCE_SCALAR is a non-zero integer (read once per process).
bool force_scalar();

/// Nestable per-thread RAII pin for one kernel enum: while alive, kAuto
/// resolves to the pinned kernel on this thread; destruction restores the
/// previous pin. Pinning kAuto unpins.
template <class Kernel>
class KernelPin {
 public:
  /// Throws std::runtime_error (table.check) if `kernel` is unavailable.
  template <class Table>
  KernelPin(const Table& table, Kernel kernel) : previous_(current_) {
    table.check(kernel);
    current_ = kernel;
  }
  ~KernelPin() { current_ = previous_; }
  KernelPin(const KernelPin&) = delete;
  KernelPin& operator=(const KernelPin&) = delete;

  /// This thread's innermost pin, or kAuto.
  static Kernel current() { return current_; }

 private:
  static inline thread_local Kernel current_ = Kernel::kAuto;
  Kernel previous_;
};

/// One family's priority table. `Kernel` is an enum with a kAuto value;
/// `Impl` is what the family's driver dispatches through.
template <class Kernel, class Impl>
class KernelTable {
 public:
  struct Entry {
    Kernel kernel;
    const char* name;
    Impl impl;       // null: this build left the kernel out
    bool supported;  // this CPU reports what the kernel needs
  };

  /// `entries` run from the scalar kernel, always available, up to the most
  /// preferred. The table narrows each `supported` to "available": false
  /// for a null impl, and for every entry but the first under
  /// SAGA_FORCE_SCALAR.
  KernelTable(std::initializer_list<Entry> entries) : entries_(entries) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      Entry& entry = entries_[i];
      entry.supported = i == 0 || (entry.impl != Impl{} && entry.supported &&
                                   !force_scalar());
      if (entry.supported) picked_ = entry.kernel;
    }
  }

  /// `kernel`, or for kAuto this thread's pin, else the process-wide pick.
  Kernel resolve(Kernel kernel = Kernel::kAuto) const {
    if (kernel == Kernel::kAuto) kernel = KernelPin<Kernel>::current();
    return kernel == Kernel::kAuto ? picked_ : kernel;
  }

  /// The available kernels, scalar first.
  std::vector<Kernel> available() const {
    std::vector<Kernel> kernels;
    for (const Entry& entry : entries_) {
      if (entry.supported) kernels.push_back(entry.kernel);
    }
    return kernels;
  }

  /// Name of resolve(kernel).
  std::string name(Kernel kernel = Kernel::kAuto) const {
    return find(resolve(kernel)).name;
  }

  /// Throws std::runtime_error unless `kernel` is kAuto or available.
  void check(Kernel kernel) const {
    if (kernel == Kernel::kAuto || find(kernel).supported) return;
    throw std::runtime_error("kernel '" + name(kernel) +
                             "' is not available on this host (unsupported "
                             "CPU or build, or SAGA_FORCE_SCALAR=1)");
  }

  /// The implementation resolve(kernel) dispatches to; throws like check().
  Impl impl(Kernel kernel = Kernel::kAuto) const {
    check(kernel);
    return find(resolve(kernel)).impl;
  }

 private:
  const Entry& find(Kernel kernel) const {
    for (const Entry& entry : entries_) {
      if (entry.kernel == kernel) return entry;
    }
    throw std::logic_error("kernel missing from its dispatch table");
  }

  std::vector<Entry> entries_;
  Kernel picked_ = Kernel::kAuto;
};

}  // namespace saga::util
