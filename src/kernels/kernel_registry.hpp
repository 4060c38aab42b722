// Host kernel registry: turns a KernelConfig (any joint application of
// optimizations the tuner can select) into a prepared SpMV/SpMM plan,
// performing whatever preprocessing the configuration needs (delta
// compression, long-row decomposition, symmetric storage, partitioning) and
// recording its cost — the t_pre that the amortization analysis (paper
// Table V) charges.
#pragma once

#include <memory>
#include <span>

#include "obs/telemetry.hpp"
#include "kernels/block_view.hpp"
#include "kernels/kernel_config.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

namespace sparta::kernels {

namespace detail_registry {
struct Prepared;
}  // namespace detail_registry

/// Everything that parameterizes the preparation of one kernel instance.
struct SpmvOptions {
  /// The composed kernel variant (tuner output). Default = baseline CSR.
  KernelConfig config{};
  /// Partition/thread count; 0 means omp_get_max_threads(). Negative throws.
  int threads = 0;
  /// NUMA first-touch copies of the streaming arrays (see class comment).
  bool first_touch = false;
  /// Expected operand width k of run() calls (Y = alpha A X + beta Y with
  /// X/Y being k columns wide). It only sets the default width of
  /// bytes_per_run() and is reported by block_width(): every width runs the
  /// same greedy 8/4/2/1 chunks against scratch sized for 8 columns.
  /// Must be >= 1.
  int block_width = 1;
};

/// A prepared host SpMV/SpMM plan. Holds converted formats, the row
/// partition and scratch; the source matrix must outlive it.
///
/// One operand model: every product takes dense rows x k blocks
/// (block_view.hpp) and computes Y = alpha * A * X + beta * Y, reading the
/// matrix stream once per k operand columns (register-blocked for k in
/// {1, 2, 4, 8}, greedy chunks of those otherwise). alpha = 1, beta = 0
/// (the defaults) store directly.
///
/// One execution path: `run_team()` is the only code that executes a
/// product. The plan fixes one partition (`region_parts()`: equal rows for
/// the static-rows schedule, balanced nonzeros otherwise — with the long
/// rows counted as empty under long-row decomposition) and a fixed list of
/// phases:
///  - CSR and delta: one phase over the owned rows;
///  - dynamic schedule: the rows self-scheduled in 64-row chunks, then —
///    when a dot is fused — a pass over the owned rows;
///  - symmetric storage: the owned rows stored straight into Y, mirrors
///    below a part's first row collected in its halo window, then each
///    owner adds the later parts' halo rows, then — when a dot is fused — a
///    pass over the owned rows (kernels/spmv_sym.hpp);
///  - long-row decomposition: the owned short rows plus each part's nnz
///    slice of every long row (the rows above long_row_threshold(), read in
///    place from the source CSR), then the long-row owner sums the slices in
///    part order. It has no dynamic variant: a decomposed config with
///    Schedule::kDynamicChunks runs this static plan.
/// One-shot `run()` is a single parallel region around `run_team()`; the
/// solver engine (src/engine/) calls it from its persistent region.
///
/// With `first_touch` set, the streams a one-phase plan reads — rowptr, its
/// column stream (colind, or delta's first_col and deltas) and values — are
/// copied into untouched storage and initialized range-by-range from the
/// threads that own those ranges, so on first-touch NUMA systems every
/// thread reads its share from local memory; a delta plan then frees its
/// unplaced stream. The other plans do not read those streams by owned row
/// (`first_touch_applied()` reports false).
///
/// `KernelConfig::x_access` selects the paper's bound micro-benchmarks
/// (§III-B): kRegularized runs the CSR kernels over a prepared colind whose
/// row-i entries hold i (P_ML), kUnitStride a unit-stride row body that
/// never reads colind (P_CMP). Both compute Y[i] = alpha * X[i] * (sum of
/// row i) + beta * Y[i], so X needs nrows() rows.
class PreparedSpmv {
 public:
  /// Preprocess `a` per `opts`. If opts.config.delta is set but the matrix
  /// is incompressible, falls back to plain colind (delta_applied() reports
  /// false). Throws std::invalid_argument when a bound x_access is combined
  /// with delta, symmetric storage or long-row decomposition.
  explicit PreparedSpmv(const CsrMatrix& a, const SpmvOptions& opts = {});

  /// Run Y = alpha * A * X + beta * Y in one parallel region of threads()
  /// threads. X is ncols x k (nrows x k for a bound plan), Y is nrows x k;
  /// the widths must match. Throws std::invalid_argument on a width
  /// mismatch, or when X or Y has fewer rows than that.
  void run(ConstDenseBlockView x, DenseBlockView y, value_t alpha = 1.0,
           value_t beta = 0.0) const;

  /// Run y = alpha * A * x + beta * y — the width-1 block special case.
  void run(std::span<const value_t> x, std::span<value_t> y, value_t alpha = 1.0,
           value_t beta = 0.0) const;

  /// Region-reentrant Y = alpha * A * X + beta * Y. Every thread of the
  /// enclosing parallel region calls it once per product, with the same
  /// operands; one thread may also call it outside any region. Thread t of
  /// a team of n owns parts t, t + n, ... of region_parts(). It places the
  /// barriers between the plan's phases itself; on return the calling
  /// thread's owned rows of Y are final. The caller orders writes of X
  /// against the product (X is gathered at arbitrary rows) and separates
  /// two products on one plan with a barrier (the symmetric and decomposed
  /// scratch is shared). Given a non-empty `w` — only with contiguous
  /// width-1 X and Y — returns the calling thread's partial sum of
  /// w[i] * y[i] over its owned rows; otherwise returns 0. Widths and row
  /// counts must match (unchecked: this is the per-thread hot path).
  double run_team(ConstDenseBlockView x, DenseBlockView y, value_t alpha, value_t beta,
                  std::span<const value_t> w = {}) const;

  /// The plan's row partition: one range per prepared thread, an ordered
  /// exact cover of the rows (some ranges possibly empty).
  [[nodiscard]] std::span<const RowRange> region_parts() const;

  /// Shape of the source matrix the plan was prepared from.
  [[nodiscard]] index_t nrows() const { return nrows_; }
  [[nodiscard]] index_t ncols() const { return ncols_; }
  /// Wall-clock seconds the preprocessing took.
  [[nodiscard]] double prep_seconds() const { return prep_seconds_; }
  [[nodiscard]] const KernelConfig& config() const { return config_; }
  /// The resolved thread/partition count (never 0).
  [[nodiscard]] int threads() const { return threads_; }
  [[nodiscard]] bool delta_applied() const { return delta_applied_; }
  /// Whether the kernel actually runs on symmetric (lower-triangle +
  /// diagonal) storage. False when the config never asked for it or when
  /// the matrix turned out not to be exactly symmetric (the build falls
  /// back to the general kernels, like an incompressible delta config).
  [[nodiscard]] bool symmetric_applied() const { return symmetric_applied_; }
  /// Whether the plan runs the long-row phases. False when the config never
  /// asked for decomposition, next to an applied delta, or on a matrix with
  /// no row above long_row_threshold() (sparse/partition.hpp): those plans
  /// run the one-phase row plan, or the dynamic one under
  /// Schedule::kDynamicChunks.
  [[nodiscard]] bool decomposed_applied() const { return decomposed_applied_; }
  /// Whether the plan runs the prefetching CSR row bodies. False when the
  /// config never asked for a prefetch, next to an applied delta, on
  /// symmetric storage and on the unit-stride bound: those kernels issue
  /// no prefetch.
  [[nodiscard]] bool prefetch_applied() const { return prefetch_applied_; }
  [[nodiscard]] bool first_touch_applied() const { return first_touch_applied_; }
  /// The operand-width hint the plan was prepared with (>= 1).
  [[nodiscard]] int block_width() const { return block_width_; }
  /// Estimated bytes streamed from memory by one product of the given
  /// operand width: the matrix arrays in the prepared format once (the SpMM
  /// amortization — they are not re-read per column; no colind for the
  /// unit-stride bound), plus x read and y written per operand column —
  /// feeds the kernels.run.bytes telemetry counter with the actual width of
  /// each product.
  [[nodiscard]] double bytes_per_run(int width) const;
  /// Default form: the prepared block_width hint.
  [[nodiscard]] double bytes_per_run() const { return bytes_per_run(block_width_); }

 private:
  KernelConfig config_;
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  int threads_ = 0;
  int block_width_ = 1;
  double prep_seconds_ = 0.0;
  bool delta_applied_ = false;
  bool symmetric_applied_ = false;
  bool decomposed_applied_ = false;
  bool prefetch_applied_ = false;
  bool first_touch_applied_ = false;
  double matrix_bytes_ = 0.0;
  double vector_bytes_per_column_ = 0.0;
  std::shared_ptr<detail_registry::Prepared> prepared_;
  obs::Counter run_calls_;
  obs::Counter run_bytes_;
  obs::Gauge run_width_;
};

}  // namespace sparta::kernels
