// Host profiling path: the paper's methodology executed with *real* kernels
// and wall-clock timers on the machine this binary runs on — the deployment
// mode a downstream user of the library cares about. The modeled platforms
// (sim/) reproduce the paper's testbeds; this module applies the identical
// bound-and-bottleneck pipeline to live hardware:
//   P_CSR / P_IMB — timed baseline plan with per-thread durations
//   P_ML          — timed plan with KernelConfig::x_access = kRegularized
//   P_CMP         — timed plan with KernelConfig::x_access = kUnitStride
//   P_MB / P_peak — analytic, anchored on the measured STREAM bandwidth
// The three plans are kernels::PreparedSpmv plans, prepared one at a time
// over one pair of operands; each repetition is one region of
// plan.threads() threads in which every thread times its own run_team call.
// classify_profile() then consumes the measured bounds unchanged.
#pragma once

#include "machine/stream_probe.hpp"
#include "tuner/optimizer.hpp"

namespace sparta {

struct HostProfileOptions {
  /// Threads for the measurement kernels (0 = all available).
  int threads = 0;
  /// Cap on the timed repetitions of each measured kernel; must be >= 1.
  /// Each kernel runs once to warm up, then repeats until its repetitions
  /// sum to a fixed 0.25 s budget: at least min(3, iterations) times, at
  /// most `iterations` times. (The paper times a fixed 64 runs.)
  int iterations = 16;
  /// Reuse a previous STREAM probe instead of re-measuring (one probe
  /// costs about 12-25 ms on a 4-vCPU VM; pass the result when profiling
  /// many matrices).
  const StreamResult* stream = nullptr;
  /// Matrix label recorded in the trace.
  std::string name{};
  /// Attach an obs::TuneTrace (measured bounds, classes, per-phase wall
  /// microseconds) to the returned plan.
  bool collect_trace = obs::enabled();
};

/// Measure all per-class bounds on the host. Throws std::invalid_argument
/// when `options.iterations` < 1.
PerfBounds measure_bounds_host(const CsrMatrix& m, const HostProfileOptions& options = {});

/// Full profile-guided tuning on the host: measure bounds, classify, select
/// and *prepare* the optimized kernel, then time it. The returned plan's
/// gflops/t_spmv are real measurements and t_pre is the real wall-clock
/// preprocessing cost (profiling + conversion), so the amortization formula
/// can be applied to live data.
///
/// Long-row split: the optimizations come from select_host_optimizations,
/// so a matrix that passes the uneven-rows test (has_uneven_rows: nnz_max /
/// nnz_avg above `imb.uneven_row_ratio`) gets long-row decomposition unless
/// MB selected delta, whatever its P_IMB reading. The rule runs before the
/// symmetric rider, which decomposition excludes, and before the one
/// measurement. It reads the ratio, not "some row is above the long-row
/// threshold": that rule would also split power-law matrices whose hubs
/// are hundreds of average rows, where the split did not shorten
/// perfbench's k = 8 sweeps (DESIGN.md §10).
///
/// Symmetric-storage rider (the simulated Autotuner::plan has the same): on
/// a square matrix whose selected config allows symmetric storage
/// (KernelConfig::allows_symmetric), the symmetric plan is prepared first.
/// A matrix that is not exactly symmetric keeps the general plan; a built
/// symmetric plan is kept only if its mean timed repetition is below the
/// bounds phase's baseline CSR mean (PerfBounds::t_csr_seconds), and is
/// otherwise replaced by the general plan, prepared and measured anew. The
/// returned config is exactly the plan measured last.
///
/// The trace's `extra` records the timed repetitions of each kernel
/// (reps_csr, reps_ml, reps_cmp, reps_measure — the last of the plan
/// measured last) and the rider's decision: symmetric_tried,
/// symmetric_applied (the build accepted the matrix), symmetric_kept (the
/// returned config.symmetric) and symmetric_mean_seconds (the symmetric
/// plan's mean repetition, 0 when none was built; compare t_csr_seconds in
/// `bounds`), the uneven-rows test's outcome (uneven_rows) and whether the
/// plan measured last runs the long-row phases
/// (PreparedSpmv::decomposed_applied) and the prefetch
/// (PreparedSpmv::prefetch_applied). Throws std::invalid_argument when
/// `options.iterations` < 1.
OptimizationPlan tune_host(const CsrMatrix& m, const HostProfileOptions& options = {},
                           const ProfileThresholds& thresholds = {},
                           const ImbPolicy& imb = {});

}  // namespace sparta
