// Kernel variant descriptors.
//
// Every optimization in the paper's pool (Table II) maps to a flag here; a
// KernelConfig describes one concrete SpMV variant (possibly combining
// several optimizations, as the optimizer applies them jointly). The same
// structure also encodes the two bound micro-benchmarks of §III-B via
// `x_access`:  Regularized  -> the P_ML kernel (colind[j] := row index),
//              UnitStride   -> the P_CMP kernel (no colind, x[i] only).
// Both run on the host as PreparedSpmv plans (plain CSR storage only) and
// in the simulator's cost model.
//
// The descriptors live in the kernels module (they parameterize the host
// kernels the registry instantiates); the simulator's cost model
// (sim/kernel_model.hpp) consumes them from one layer above and re-exports
// the names in sparta::sim for its callers.
#pragma once

#include <string>

namespace sparta::kernels {

/// Loop scheduling policy for the parallel outer loop.
enum class Schedule {
  kStaticNnzBalanced,  // paper baseline: equal-nnz contiguous row blocks
  kStaticRows,         // conventional vendor split: equal row counts
  kDynamicChunks,      // OpenMP auto/dynamic-style self-scheduling
};

/// How the kernel addresses the x vector.
enum class XAccess {
  kIndirect,     // normal SpMV: x[colind[j]]
  kRegularized,  // P_ML micro-benchmark: colind regularized to the row index
  kUnitStride,   // P_CMP micro-benchmark: x[i]; colind not even loaded
};

/// One concrete kernel variant.
struct KernelConfig {
  bool vectorized = false;   // SIMD across the inner loop (gathers for x)
  bool unrolled = false;     // inner-loop unrolling (CMP optimization)
  bool prefetch = false;     // software prefetch of x (ML optimization)
  bool delta = false;        // delta-compressed colind (MB optimization)
  bool decomposed = false;   // long-row decomposition (IMB optimization)
  bool symmetric = false;    // lower-triangle+diagonal storage (MB, SPD inputs)
  Schedule schedule = Schedule::kStaticNnzBalanced;
  XAccess x_access = XAccess::kIndirect;

  /// Short tag such as "csr+vec+pf" for tables and logs.
  [[nodiscard]] std::string describe() const;

  /// Whether symmetric storage may run under this config's other choices:
  /// never next to delta or long-row decomposition (the plans it replaces),
  /// and never under the dynamic schedule (its halo windows are keyed to a
  /// static row partition).
  [[nodiscard]] bool allows_symmetric() const {
    return !delta && !decomposed && schedule != Schedule::kDynamicChunks;
  }

  friend bool operator==(const KernelConfig&, const KernelConfig&) = default;
};

/// Baseline CSR with the paper's default partitioning.
inline KernelConfig baseline_config() { return KernelConfig{}; }

}  // namespace sparta::kernels
