// The result record of an iterative solve, returned by
// engine::SolverEngine::cg and ::bicgstab.
#pragma once

#include <vector>

namespace sparta::solvers {

/// Convergence report.
struct SolveResult {
  int iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
  /// Total wall seconds and the share spent inside SpMV (for the
  /// amortization analysis, which assumes t_other is SpMV-independent).
  double seconds = 0.0;
  double spmv_seconds = 0.0;
  /// Per-iteration series (||r|| after each iteration; wall seconds per
  /// iteration) of the first kSeriesLimit iterations, allocated before the
  /// first one whatever the iteration cap. Collected only while telemetry
  /// is enabled (obs::enabled()) — empty otherwise, so the hot solver loop
  /// never allocates by default.
  static constexpr int kSeriesLimit = 1 << 16;
  std::vector<double> residual_history;
  std::vector<double> iter_seconds;
};

}  // namespace sparta::solvers
