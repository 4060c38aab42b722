#include "engine/solver_engine.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/numa.hpp"
#include "common/timer.hpp"
#include "obs/telemetry.hpp"

namespace sparta::engine {

namespace {

/// The two scalars of one team sum.
struct Sums {
  double a = 0.0;
  double b = 0.0;
};

/// One thread's cache-line-padded reduction slot.
struct alignas(kCacheLineBytes) Slot : Sums {};

/// One thread's handle on a solve's region, built by every thread inside
/// it: the plan parts the thread owns, and the team sum.
class Team {
 public:
  /// `slots` holds two banks of omp_get_num_threads() slots or more.
  Team(std::span<const RowRange> parts, std::span<Slot> slots)
      : parts_(parts),
        slots_(slots),
        tid_(static_cast<std::size_t>(omp_get_thread_num())),
        nt_(static_cast<std::size_t>(omp_get_num_threads())) {}

  /// body(range) for each part this thread owns.
  template <class Body>
  void for_owned(Body&& body) const {
    for (std::size_t pi = tid_; pi < parts_.size(); pi += nt_) body(parts_[pi]);
  }

  /// The team's sums of every thread's (a, b). Every thread of the region
  /// calls it, equally often: the thread writes its slot, passes one
  /// barrier, then adds all slots in tid order itself, so every thread
  /// returns the same bits (no atomics; deterministic for a fixed thread
  /// count). Bank rule: consecutive sums use alternate banks, so a thread
  /// writes a bank again only after the barrier of the sum in between,
  /// which no thread reaches before it has read that bank.
  Sums sum(double a, double b = 0.0) {
    const std::span<Slot> bank = slots_.subspan(bank_ * nt_, nt_);
    bank[tid_].a = a;
    bank[tid_].b = b;
#pragma omp barrier
    Sums s;
    for (const Slot& slot : bank) {
      s.a += slot.a;
      s.b += slot.b;
    }
    bank_ ^= 1;
    return s;
  }

 private:
  std::span<const RowRange> parts_;
  std::span<Slot> slots_;
  std::size_t tid_;
  std::size_t nt_;
  std::size_t bank_ = 0;
};

/// The setup pass: this thread zeroes its rows of `vecs` (their first
/// touch), and the team returns the stopping threshold tol * ||b|| (tol
/// when b = 0).
double setup(Team& team, std::span<const value_t> b,
             std::initializer_list<std::span<value_t>> vecs, double tol) {
  double bb_p = 0.0;
  team.for_owned([&](RowRange rng) {
    const auto lo = static_cast<std::size_t>(rng.begin);
    const auto len = static_cast<std::size_t>(rng.size());
    for (const std::span<value_t> v : vecs) std::ranges::fill(v.subspan(lo, len), 0.0);
    for (const value_t bk : b.subspan(lo, len)) bb_p += bk * bk;
  });
  const double bn = std::sqrt(team.sum(bb_p).a);
  return tol * (bn > 0.0 ? bn : 1.0);
}

/// y = A x through the plan's phases, called by every thread of the
/// region; returns the calling thread's partial w·y (0 when w is empty).
double product(const kernels::PreparedSpmv& spmv, std::span<const value_t> x,
               std::span<value_t> y, std::span<const value_t> w = {}) {
  return spmv.run_team(kernels::ConstDenseBlockView::from_vector(x),
                       kernels::DenseBlockView::from_vector(y), 1.0, 0.0, w);
}

/// A method's error-message prefix and registry names.
struct Method {
  const char* name;
  const char* solves;
  const char* iterations;
  const char* iter_micros;
};

constexpr Method kCg{"engine cg", "engine.cg.solves", "engine.cg.iterations",
                     "engine.cg.iter_micros"};
constexpr Method kBicgstab{"engine bicgstab", "engine.bicgstab.solves",
                           "engine.bicgstab.iterations", "engine.bicgstab.iter_micros"};

/// One solve's bookkeeping, the same for both methods. The constructor
/// checks the operands and allocates the team's two slot banks and, with
/// telemetry on, the per-iteration series, so the loop writes them by
/// index and never allocates. Inside the region thread 0 alone calls the
/// stopwatch and record methods; finish() runs after the region.
class Solve {
 public:
  Solve(const Method& method, const CsrMatrix& a, std::span<const value_t> b,
        std::span<const value_t> x, int max_iterations, int threads)
      : method_(method), slots_(2 * static_cast<std::size_t>(threads)) {
    if (a.nrows() != a.ncols()) {
      throw std::invalid_argument{std::string{method.name} + ": matrix must be square"};
    }
    const auto n = static_cast<std::size_t>(a.nrows());
    if (b.size() != n || x.size() != n) {
      throw std::invalid_argument{std::string{method.name} + ": vector size mismatch"};
    }
    if (track_) {
      const auto len = static_cast<std::size_t>(
          std::min(max_iterations, solvers::SolveResult::kSeriesLimit));
      result_.residual_history.resize(len);
      result_.iter_seconds.resize(len);
    }
  }

  [[nodiscard]] std::span<Slot> slots() { return slots_; }

  /// Starts the iteration's stopwatch and its first product's.
  void start_iteration() {
    iteration_.reset();
    pass_.reset();
  }
  void start_pass() { pass_.reset(); }
  /// A fused product and its team sum are done.
  void end_pass() {
    result_.spmv_seconds += pass_.seconds();
    ++fused_passes_;
  }
  /// Iteration `it` left ||r||^2 = rr.
  void record(int it, double rr) {
    const auto k = static_cast<std::size_t>(it);
    if (k >= result_.residual_history.size()) return;
    result_.residual_history[k] = std::sqrt(rr);
    result_.iter_seconds[k] = iteration_.seconds();
  }
  /// The loop ended after `iterations` iterations with ||r||^2 = rr.
  void stop(int iterations, bool converged, double rr) {
    result_.iterations = iterations;
    result_.converged = converged;
    result_.residual_norm = std::sqrt(rr);
  }

  /// Trims the series to the iterations run, adds the wall time and counts
  /// the solve in the registry.
  solvers::SolveResult finish() {
    const auto kept = std::min(result_.residual_history.size(),
                               static_cast<std::size_t>(result_.iterations));
    result_.residual_history.resize(kept);
    result_.iter_seconds.resize(kept);
    result_.seconds = total_.seconds();
    auto& reg = obs::Registry::global();
    reg.counter(method_.solves).add();
    reg.counter(method_.iterations).add(result_.iterations);
    reg.counter("engine.fused_spmv_dot.passes").add(fused_passes_);
    if (track_) {
      const obs::Histogram h = reg.histogram(method_.iter_micros);
      for (double s : result_.iter_seconds) h.record(s * 1e6);
    }
    return std::move(result_);
  }

 private:
  const Method& method_;
  const bool track_ = obs::enabled();
  Timer total_;
  aligned_vector<Slot> slots_;
  solvers::SolveResult result_;
  Timer iteration_;  // thread 0's stopwatches
  Timer pass_;
  int fused_passes_ = 0;
};

}  // namespace

SolverEngine::SolverEngine(const CsrMatrix& a, const sim::KernelConfig& cfg,
                           const EngineOptions& opts)
    : SolverEngine(a,
                   std::make_shared<const kernels::PreparedSpmv>(
                       a, kernels::SpmvOptions{.config = cfg,
                                               .threads = std::max(opts.threads, 0),
                                               .first_touch = opts.first_touch}),
                   opts) {}

SolverEngine::SolverEngine(const CsrMatrix& a,
                           std::shared_ptr<const kernels::PreparedSpmv> prepared,
                           const EngineOptions& opts)
    : a_(&a), opts_(opts), prepared_(std::move(prepared)) {
  if (!prepared_) {
    throw std::invalid_argument{"SolverEngine: prepared kernel must be non-null"};
  }
  if (prepared_->nrows() != a.nrows() || prepared_->ncols() != a.ncols()) {
    throw std::invalid_argument{"SolverEngine: prepared kernel is for a different shape"};
  }
  if (prepared_->config().x_access != kernels::XAccess::kIndirect) {
    throw std::invalid_argument{"SolverEngine: a bound micro-benchmark plan does not compute A x"};
  }
  if (opts.max_iterations < 0) throw std::invalid_argument{"SolverEngine: max_iterations < 0"};
  // The region partition is fixed at preparation time; the engine must run
  // exactly that many threads.
  threads_ = prepared_->threads();
  init_jacobi();
}

void SolverEngine::init_jacobi() {
  if (!opts_.jacobi) return;
  const CsrMatrix& a = *a_;
  const index_t nrows = a.nrows();
  inv_diag_.assign(static_cast<std::size_t>(nrows), 1.0);
  for (index_t i = 0; i < nrows; ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      if (cols[j] == i && vals[j] != 0.0) {
        inv_diag_[static_cast<std::size_t>(i)] = 1.0 / vals[j];
        break;
      }
    }
  }
}

solvers::SolveResult SolverEngine::cg(std::span<const value_t> b,
                                      std::span<value_t> x) const {
  Solve solve{kCg, *a_, b, x, opts_.max_iterations, threads_};
  const auto parts = prepared_->region_parts();
  const bool jacobi = opts_.jacobi;
  const double tol = opts_.tolerance;
  const int max_it = opts_.max_iterations;
  const std::span<const value_t> inv_diag = inv_diag_;
  const kernels::PreparedSpmv& spmv = *prepared_;

  // Untouched storage: each thread first-touches its owned rows below.
  const std::size_t n = b.size();
  NumaArray<value_t> r_buf(n), p_buf(n), ap_buf(n), z_buf(n);
  const auto r = r_buf.span();
  const auto p = p_buf.span();
  const auto ap = ap_buf.span();
  const auto z = z_buf.span();

#pragma omp parallel default(none) num_threads(threads_) \
    shared(solve, parts, jacobi, tol, max_it, inv_diag, b, x, r, p, ap, z, spmv)
  {
    const int tid = omp_get_thread_num();
    Team team{parts, solve.slots()};
    const double threshold = setup(team, b, {r, p, ap, z}, tol);

    // r = b - A x; z = M^-1 r; p = z; rz = r·z, rr = r·r.
    (void)product(spmv, x, ap);
    double rz_p = 0.0, rr_p = 0.0;
    team.for_owned([&](RowRange rng) {
      for (index_t i = rng.begin; i < rng.end; ++i) {
        const auto k = static_cast<std::size_t>(i);
        r[k] = b[k] - ap[k];
        z[k] = jacobi ? inv_diag[k] * r[k] : r[k];
        p[k] = z[k];
        rz_p += r[k] * z[k];
        rr_p += r[k] * r[k];
      }
    });
    const Sums first = team.sum(rz_p, rr_p);
    double rz = first.a;
    double rr = first.b;
    bool converged = false;
    int iters = 0;

    for (int it = 0; it < max_it; ++it) {
      if (std::sqrt(rr) <= threshold) {
        converged = true;
        break;
      }

      // Fused ap = A p with the dependent reduction p·ap.
      if (tid == 0) solve.start_iteration();
      const double pap = team.sum(product(spmv, p, ap, p)).a;
      if (tid == 0) solve.end_pass();
      // Breakdown: zero or negative curvature (A not SPD), or a NaN.
      if (!(pap > 0.0)) break;
      const double alpha = rz / pap;

      // Fused x += alpha p; r -= alpha ap; z = M^-1 r; rz' and r·r.
      double rz_n = 0.0, rr_n = 0.0;
      team.for_owned([&](RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          x[k] += alpha * p[k];
          r[k] -= alpha * ap[k];
          z[k] = jacobi ? inv_diag[k] * r[k] : r[k];
          rz_n += r[k] * z[k];
          rr_n += r[k] * r[k];
        }
      });
      const Sums next = team.sum(rz_n, rr_n);
      const double beta = next.a / rz;
      rz = next.a;
      rr = next.b;
      iters = it + 1;
      if (tid == 0) solve.record(it, rr);

      // p = z + beta p; the barrier publishes p before the next product
      // gathers it at arbitrary columns.
      team.for_owned([&](RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          p[k] = z[k] + beta * p[k];
        }
      });
#pragma omp barrier
    }
    if (tid == 0) solve.stop(iters, converged, rr);
  }
  return solve.finish();
}

void SolverEngine::spmm(kernels::ConstDenseBlockView x, kernels::DenseBlockView y,
                        value_t alpha, value_t beta) const {
  prepared_->run(x, y, alpha, beta);
  auto& reg = obs::Registry::global();
  reg.counter("engine.spmm.calls").add();
  reg.counter("engine.spmm.columns").add(static_cast<double>(x.width));
}

solvers::SolveResult SolverEngine::bicgstab(std::span<const value_t> b,
                                            std::span<value_t> x) const {
  Solve solve{kBicgstab, *a_, b, x, opts_.max_iterations, threads_};
  const auto parts = prepared_->region_parts();
  const double tol = opts_.tolerance;
  const int max_it = opts_.max_iterations;
  const kernels::PreparedSpmv& spmv = *prepared_;

  const std::size_t n = b.size();
  NumaArray<value_t> r_buf(n), r0_buf(n), p_buf(n), v_buf(n), s_buf(n), t_buf(n);
  const auto r = r_buf.span();
  const auto r0 = r0_buf.span();
  const auto p = p_buf.span();
  const auto v = v_buf.span();
  const auto s = s_buf.span();
  const auto t = t_buf.span();

#pragma omp parallel default(none) num_threads(threads_) \
    shared(solve, parts, tol, max_it, b, x, r, r0, p, v, s, t, spmv)
  {
    const int tid = omp_get_thread_num();
    Team team{parts, solve.slots()};
    const double threshold = setup(team, b, {r, r0, p, v, s, t}, tol);

    // r = b - A x; r0 = p = r (shadow residual); rho = r0·r = r·r.
    (void)product(spmv, x, v);
    double rho_p = 0.0;
    team.for_owned([&](RowRange rng) {
      for (index_t i = rng.begin; i < rng.end; ++i) {
        const auto k = static_cast<std::size_t>(i);
        r[k] = b[k] - v[k];
        r0[k] = r[k];
        p[k] = r[k];
        rho_p += r[k] * r[k];
      }
    });
    double rho = team.sum(rho_p).a;
    double rr = rho;
    bool converged = false;
    int iters = 0;

    for (int it = 0; it < max_it; ++it) {
      if (std::sqrt(rr) <= threshold) {
        converged = true;
        break;
      }
      if (!(std::abs(rho) > 0.0)) break;  // breakdown: zero or NaN

      // Fused v = A p with r0·v.
      if (tid == 0) solve.start_iteration();
      const double r0v = team.sum(product(spmv, p, v, r0)).a;
      if (tid == 0) solve.end_pass();
      if (!(std::abs(r0v) > 0.0)) break;
      const double alpha = rho / r0v;

      // Fused s = r - alpha v with ||s||^2.
      double ss_p = 0.0;
      team.for_owned([&](RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          s[k] = r[k] - alpha * v[k];
          ss_p += s[k] * s[k];
        }
      });
      const double ss = team.sum(ss_p).a;
      if (std::sqrt(ss) <= threshold) {
        // Half-step exit: x += alpha p; r = s. Each thread writes only its
        // own rows and nothing reads them before the region ends.
        team.for_owned([&](RowRange rng) {
          for (index_t i = rng.begin; i < rng.end; ++i) {
            const auto k = static_cast<std::size_t>(i);
            x[k] += alpha * p[k];
            r[k] = s[k];
          }
        });
        rr = ss;
        converged = true;
        iters = it + 1;
        if (tid == 0) solve.record(it, rr);
        break;
      }

      // Fused t = A s with t·s, plus the owned-rows t·t in the same phase.
      if (tid == 0) solve.start_pass();
      const double ts_p = product(spmv, s, t, s);
      double tt_p = 0.0;
      team.for_owned([&](RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          tt_p += t[k] * t[k];
        }
      });
      const Sums ts_tt = team.sum(ts_p, tt_p);
      if (tid == 0) solve.end_pass();
      if (!(std::abs(ts_tt.b) > 0.0)) break;
      const double omega = ts_tt.a / ts_tt.b;
      if (!(std::abs(omega) > 0.0)) break;

      // Fused x, r updates with rho' = r0·r and r·r.
      double rho_n = 0.0, rr_n = 0.0;
      team.for_owned([&](RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          x[k] += alpha * p[k] + omega * s[k];
          r[k] = s[k] - omega * t[k];
          rho_n += r0[k] * r[k];
          rr_n += r[k] * r[k];
        }
      });
      const Sums next = team.sum(rho_n, rr_n);
      const double beta = (next.a / rho) * (alpha / omega);
      rho = next.a;
      rr = next.b;
      iters = it + 1;
      if (tid == 0) solve.record(it, rr);

      // p = r + beta (p - omega v); the barrier publishes p before the next
      // product gathers it.
      team.for_owned([&](RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          p[k] = r[k] + beta * (p[k] - omega * v[k]);
        }
      });
#pragma omp barrier
    }
    if (tid == 0) solve.stop(iters, converged, rr);
  }
  return solve.finish();
}

}  // namespace sparta::engine
