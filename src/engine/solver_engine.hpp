// Persistent-parallel solver execution engine.
//
// The paper's amortization analysis (§IV-D, Table V) puts SpMV inside
// iterative solvers that call it hundreds of times — but a solver loop that
// opens one OpenMP parallel region per SpMV *and* per dot/axpy pays fork/
// join latency several times per iteration, and matrix arrays touched by a
// single allocating thread sit on one NUMA node. This engine runs the
// *entire* solve inside a single `#pragma omp parallel` region:
//
//  - each thread owns the RowRange(s) of the PreparedSpmv's partition and
//    performs every vector operation on its own rows;
//  - every SpMV is one call of PreparedSpmv::run_team from every thread,
//    which walks the plan's phases (CSR, delta, dynamic, symmetric or
//    long-row decomposed) — the engine never branches on the format;
//  - SpMV and the dependent BLAS-1 reduction are fused (run_team's `w`),
//    e.g. y = A·p together with p·y for CG;
//  - reductions are team sums without atomics: each thread writes its
//    partials to its cache-line-padded slot, passes one barrier and adds
//    all slots in tid order itself, so every thread holds the same scalars
//    and takes every exit on its own copy (deterministic for a fixed thread
//    count); consecutive sums alternate between two banks of slots, so one
//    barrier per sum suffices. An iteration passes 3 barriers in CG and 5
//    in BiCGSTAB, and only thread 0 writes the result record;
//  - matrix streams and solver vectors are first-touch initialized by their
//    owning threads (see NumaArray and PreparedSpmv's first_touch mode).
//
// The engine is the one implementation of CG and BiCGSTAB. Its tests check
// it against serial textbook iterations with the same breakdown tests,
// early exits and residual bookkeeping (tests/reference_solvers.hpp):
// results agree to reduction-order rounding.
#pragma once

#include <memory>
#include <span>

#include "common/types.hpp"
#include "kernels/kernel_registry.hpp"
#include "sim/kernel_model.hpp"
#include "solvers/solver_common.hpp"
#include "sparse/csr.hpp"

namespace sparta::engine {

struct EngineOptions {
  /// Region width; 0 means omp_get_max_threads().
  int threads = 0;
  /// First-touch the matrix streams and solver vectors NUMA-locally.
  bool first_touch = true;
  /// Jacobi (diagonal) preconditioning — CG only.
  bool jacobi = false;
  /// Iteration cap of cg() and bicgstab(); must be >= 0.
  int max_iterations = 1000;
  double tolerance = 1e-8;  // on ||r|| / ||b||
};

/// One matrix + kernel config, prepared once, solvable many times. The
/// source matrix must outlive the engine.
class SolverEngine {
 public:
  /// Prepare `cfg` for `a` at opts.threads. Throws std::invalid_argument
  /// when cfg.x_access is not kIndirect (a bound micro-benchmark plan does
  /// not compute A x) or opts.max_iterations < 0.
  explicit SolverEngine(const CsrMatrix& a, const sim::KernelConfig& cfg = {},
                        const EngineOptions& opts = {});

  /// Adopt an already-prepared kernel instance (e.g. one shared with
  /// another engine) instead of re-running preprocessing. `prepared` must
  /// be non-null and built from `a`; its thread count wins over
  /// opts.threads. Throws std::invalid_argument on null, when its
  /// nrows()/ncols() differ from `a`'s, or on the other constructor's
  /// conditions.
  SolverEngine(const CsrMatrix& a, std::shared_ptr<const kernels::PreparedSpmv> prepared,
               const EngineOptions& opts = {});

  /// Fused CG for SPD A. `x` holds the initial guess on entry and the
  /// solution on exit.
  solvers::SolveResult cg(std::span<const value_t> b, std::span<value_t> x) const;

  /// Fused BiCGSTAB (two products per iteration). `x` holds the initial
  /// guess on entry and the solution on exit.
  solvers::SolveResult bicgstab(std::span<const value_t> b, std::span<value_t> x) const;

  /// Y = alpha * A * X + beta * Y over dense operand blocks (X: ncols x k,
  /// Y: nrows x k): one PreparedSpmv::run of the prepared plan, so a k-wide
  /// multiply costs one fork/join — not one per column — and reads the
  /// matrix stream once per k columns. Throws std::invalid_argument on an
  /// operand width mismatch or an operand shorter than the matrix.
  void spmm(kernels::ConstDenseBlockView x, kernels::DenseBlockView y, value_t alpha = 1.0,
            value_t beta = 0.0) const;

  [[nodiscard]] const kernels::PreparedSpmv& prepared() const { return *prepared_; }
  /// The engine's owning handle — shareable with other engines/callers.
  [[nodiscard]] const std::shared_ptr<const kernels::PreparedSpmv>& prepared_ptr() const {
    return prepared_;
  }
  [[nodiscard]] int threads() const { return threads_; }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }

 private:
  void init_jacobi();

  const CsrMatrix* a_;
  EngineOptions opts_;
  int threads_;
  std::shared_ptr<const kernels::PreparedSpmv> prepared_;
  aligned_vector<value_t> inv_diag_;  // Jacobi weights; empty unless opts_.jacobi
};

}  // namespace sparta::engine
