// Per-thread timed baseline SpMV — the host-side measurement that the
// P_IMB bound needs (median of per-thread execution times, paper §III-B).
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

namespace sparta::kernels {

struct TimedRun {
  /// Wall time of the slowest thread (the kernel's makespan), seconds.
  double seconds = 0.0;
  /// Per-partition busy time, seconds.
  std::vector<double> thread_seconds;
};

/// Run one baseline SpMV over `parts`, timing each partition's work from
/// inside the parallel region. Callers repeat it and average the times.
TimedRun spmv_csr_timed(const CsrMatrix& a, std::span<const value_t> x, std::span<value_t> y,
                        std::span<const RowRange> parts);

}  // namespace sparta::kernels
