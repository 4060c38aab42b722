#include "engine/solver_engine.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/numa.hpp"
#include "common/timer.hpp"
#include "obs/telemetry.hpp"

namespace sparta::engine {

namespace {

/// Cache-line-padded per-thread reduction slot: threads write their partials
/// here between barriers and one thread combines them in tid order, so every
/// reduction is atomic-free and deterministic for a fixed thread count.
struct alignas(kCacheLineBytes) Slot {
  double a = 0.0;
  double b = 0.0;
};

double sum_a(const aligned_vector<Slot>& slots, int nt) {
  double acc = 0.0;
  for (int t = 0; t < nt; ++t) acc += slots[static_cast<std::size_t>(t)].a;
  return acc;
}

double sum_b(const aligned_vector<Slot>& slots, int nt) {
  double acc = 0.0;
  for (int t = 0; t < nt; ++t) acc += slots[static_cast<std::size_t>(t)].b;
  return acc;
}

/// y = A x through the plan's phases, called by every thread of the
/// region; returns the calling thread's partial w·y (0 when w is empty).
double product(const kernels::PreparedSpmv& spmv, std::span<const value_t> x,
               std::span<value_t> y, std::span<const value_t> w = {}) {
  return spmv.run_team(kernels::ConstDenseBlockView::from_vector(x),
                       kernels::DenseBlockView::from_vector(y), 1.0, 0.0, w);
}

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
  const CsrMatrix& a = *a_;
  if (a.nrows() != a.ncols()) throw std::invalid_argument{"engine cg: matrix must be square"};
  const auto n = static_cast<std::size_t>(a.nrows());
  if (b.size() != n || x.size() != n) {
    throw std::invalid_argument{"engine cg: vector size mismatch"};
  }

  const auto parts = prepared_->region_parts();
  const int nparts = static_cast<int>(parts.size());
  const bool jacobi = opts_.jacobi;
  const double tol = opts_.tolerance;
  const int max_it = opts_.max_iterations;
  const std::span<const value_t> inv_diag = inv_diag_;

  solvers::SolveResult result;
  Timer total;

  // Untouched storage: each thread first-touches its owned rows below.
  NumaArray<value_t> r_buf(n), p_buf(n), ap_buf(n), z_buf(n);
  const auto r = r_buf.span();
  const auto p = p_buf.span();
  const auto ap = ap_buf.span();
  const auto z = z_buf.span();

  aligned_vector<Slot> slots(static_cast<std::size_t>(threads_));

  // Iteration scalars, written only inside `single` blocks; every thread
  // reads them after the single's implicit barrier.
  struct State {
    double threshold = 0.0, rr = 0.0, rz = 0.0, alpha = 0.0, beta = 0.0;
    int iters = 0;
    bool stop = false, converged = false;
  } st;
  double spmv_seconds = 0.0;
  int fused_passes = 0;
  // Per-iteration series are preallocated to max_it here and trimmed after
  // the region, so the iteration singles write by index and the hot loop
  // never allocates — collected only on request.
  const bool track = obs::enabled();
  if (track) {
    result.residual_history.resize(static_cast<std::size_t>(max_it));
    result.iter_seconds.resize(static_cast<std::size_t>(max_it));
  }
  Timer iter_timer;  // shared; reset/read inside barrier-ordered singles
  const kernels::PreparedSpmv& spmv = *prepared_;

#pragma omp parallel default(none) num_threads(threads_)                                   \
    shared(parts, nparts, jacobi, tol, max_it, inv_diag, b, x, r, p, ap, z, slots, st,     \
           track, iter_timer, spmv_seconds, fused_passes, result, spmv)
  {
    const int nt = omp_get_num_threads();
    const int tid = omp_get_thread_num();
    Timer pass;  // fused SpMV-phase stopwatch; only thread 0 reads it

    const auto for_owned = [&](auto&& body) {
      for (int pi = tid; pi < nparts; pi += nt) body(parts[static_cast<std::size_t>(pi)]);
    };

    // Setup: first-touch the owned vector slices; partial ||b||^2.
    double bb_p = 0.0;
    for_owned([&](RowRange rng) {
      for (index_t i = rng.begin; i < rng.end; ++i) {
        const auto k = static_cast<std::size_t>(i);
        r[k] = 0.0;
        p[k] = 0.0;
        ap[k] = 0.0;
        z[k] = 0.0;
        bb_p += b[k] * b[k];
      }
    });
    slots[static_cast<std::size_t>(tid)].a = bb_p;
#pragma omp barrier
#pragma omp single
    {
      const double bn = std::sqrt(sum_a(slots, nt));
      st.threshold = tol * (bn > 0.0 ? bn : 1.0);
    }

    // r = b - A x; z = M^-1 r; p = z; partial rz, rr.
    (void)product(spmv, x, ap);
    double rz_p = 0.0, rr_p = 0.0;
    for_owned([&](RowRange rng) {
      for (index_t i = rng.begin; i < rng.end; ++i) {
        const auto k = static_cast<std::size_t>(i);
        r[k] = b[k] - ap[k];
        z[k] = jacobi ? inv_diag[k] * r[k] : r[k];
        p[k] = z[k];
        rz_p += r[k] * z[k];
        rr_p += r[k] * r[k];
      }
    });
    slots[static_cast<std::size_t>(tid)] = {rz_p, rr_p};
#pragma omp barrier
#pragma omp single
    {
      st.rz = sum_a(slots, nt);
      st.rr = sum_b(slots, nt);
    }

    for (int it = 0; it < max_it; ++it) {
#pragma omp single
      {
        if (std::sqrt(st.rr) <= st.threshold) {
          st.converged = true;
          st.stop = true;
        }
        if (track && !st.stop) iter_timer.reset();
      }
      if (st.stop) break;

      // Fused ap = A p with the dependent reduction p·ap.
      if (tid == 0) pass.reset();
      slots[static_cast<std::size_t>(tid)].a = product(spmv, p, ap, p);
#pragma omp barrier
      if (tid == 0) {
        spmv_seconds += pass.seconds();
        ++fused_passes;
      }
#pragma omp single
      {
        // Breakdown: zero or negative curvature (A not SPD), or a NaN.
        const double pap = sum_a(slots, nt);
        if (!(pap > 0.0)) {
          st.stop = true;
        } else {
          st.alpha = st.rz / pap;
        }
      }
      if (st.stop) break;

      // Fused x += alpha p; r -= alpha ap; z = M^-1 r; partial rz', r·r.
      double rz_n = 0.0, rr_n = 0.0;
      for_owned([&](RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          x[k] += st.alpha * p[k];
          r[k] -= st.alpha * ap[k];
          z[k] = jacobi ? inv_diag[k] * r[k] : r[k];
          rz_n += r[k] * z[k];
          rr_n += r[k] * r[k];
        }
      });
      slots[static_cast<std::size_t>(tid)] = {rz_n, rr_n};
#pragma omp barrier
#pragma omp single
      {
        const double rz_next = sum_a(slots, nt);
        st.beta = rz_next / st.rz;
        st.rz = rz_next;
        st.rr = sum_b(slots, nt);
        st.iters = it + 1;
        if (track) {
          result.residual_history[static_cast<std::size_t>(it)] = std::sqrt(st.rr);
          result.iter_seconds[static_cast<std::size_t>(it)] = iter_timer.seconds();
        }
      }

      // p = z + beta p; the barrier publishes p before the next SpMV gathers
      // it at arbitrary columns.
      for_owned([&](RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          p[k] = z[k] + st.beta * p[k];
        }
      });
#pragma omp barrier
    }
  }

  if (track) {
    result.residual_history.resize(static_cast<std::size_t>(st.iters));
    result.iter_seconds.resize(static_cast<std::size_t>(st.iters));
  }
  result.iterations = st.iters;
  result.converged = st.converged;
  result.residual_norm = std::sqrt(st.rr);
  result.spmv_seconds = spmv_seconds;
  result.seconds = total.seconds();
  auto& reg = obs::Registry::global();
  reg.counter("engine.cg.solves").add();
  reg.counter("engine.cg.iterations").add(st.iters);
  reg.counter("engine.fused_spmv_dot.passes").add(fused_passes);
  if (track) {
    const obs::Histogram h = reg.histogram("engine.cg.iter_micros");
    for (double s : result.iter_seconds) h.record(s * 1e6);
  }
  return result;
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
  const CsrMatrix& a = *a_;
  if (a.nrows() != a.ncols()) {
    throw std::invalid_argument{"engine bicgstab: matrix must be square"};
  }
  const auto n = static_cast<std::size_t>(a.nrows());
  if (b.size() != n || x.size() != n) {
    throw std::invalid_argument{"engine bicgstab: vector size mismatch"};
  }

  const auto parts = prepared_->region_parts();
  const int nparts = static_cast<int>(parts.size());
  const double tol = opts_.tolerance;
  const int max_it = opts_.max_iterations;

  solvers::SolveResult result;
  Timer total;

  NumaArray<value_t> r_buf(n), r0_buf(n), p_buf(n), v_buf(n), s_buf(n), t_buf(n);
  const auto r = r_buf.span();
  const auto r0 = r0_buf.span();
  const auto p = p_buf.span();
  const auto v = v_buf.span();
  const auto s = s_buf.span();
  const auto t = t_buf.span();

  aligned_vector<Slot> slots(static_cast<std::size_t>(threads_));

  struct State {
    double threshold = 0.0, rr = 0.0, rho = 0.0, alpha = 0.0, beta = 0.0, omega = 0.0,
           ss = 0.0;
    int iters = 0;
    bool stop = false, converged = false, early = false;
  } st;
  double spmv_seconds = 0.0;
  int fused_passes = 0;
  const bool track = obs::enabled();
  if (track) {
    // Preallocated outside the region, trimmed after it: the iteration
    // singles write by index so the hot loop never allocates.
    result.residual_history.resize(static_cast<std::size_t>(max_it));
    result.iter_seconds.resize(static_cast<std::size_t>(max_it));
  }
  Timer iter_timer;  // shared; reset/read inside barrier-ordered singles
  const kernels::PreparedSpmv& spmv = *prepared_;

#pragma omp parallel default(none) num_threads(threads_)                                   \
    shared(parts, nparts, tol, max_it, b, x, r, r0, p, v, s, t, slots, st, track,          \
           iter_timer, spmv_seconds, fused_passes, result, spmv)
  {
    const int nt = omp_get_num_threads();
    const int tid = omp_get_thread_num();
    Timer pass;

    const auto for_owned = [&](auto&& body) {
      for (int pi = tid; pi < nparts; pi += nt) body(parts[static_cast<std::size_t>(pi)]);
    };

    // Setup: first-touch owned slices; partial ||b||^2.
    double bb_p = 0.0;
    for_owned([&](RowRange rng) {
      for (index_t i = rng.begin; i < rng.end; ++i) {
        const auto k = static_cast<std::size_t>(i);
        r[k] = 0.0;
        r0[k] = 0.0;
        p[k] = 0.0;
        v[k] = 0.0;
        s[k] = 0.0;
        t[k] = 0.0;
        bb_p += b[k] * b[k];
      }
    });
    slots[static_cast<std::size_t>(tid)].a = bb_p;
#pragma omp barrier
#pragma omp single
    {
      const double bn = std::sqrt(sum_a(slots, nt));
      st.threshold = tol * (bn > 0.0 ? bn : 1.0);
    }

    // r = b - A x; r0 = p = r (shadow residual); rho = r0·r = r·r.
    (void)product(spmv, x, v);
    double rho_p = 0.0;
    for_owned([&](RowRange rng) {
      for (index_t i = rng.begin; i < rng.end; ++i) {
        const auto k = static_cast<std::size_t>(i);
        r[k] = b[k] - v[k];
        r0[k] = r[k];
        p[k] = r[k];
        rho_p += r[k] * r[k];
      }
    });
    slots[static_cast<std::size_t>(tid)].a = rho_p;
#pragma omp barrier
#pragma omp single
    {
      st.rho = sum_a(slots, nt);
      st.rr = st.rho;
    }

    for (int it = 0; it < max_it; ++it) {
#pragma omp single
      {
        if (std::sqrt(st.rr) <= st.threshold) {
          st.converged = true;
          st.stop = true;
        } else if (!(std::abs(st.rho) > 0.0)) {
          st.stop = true;  // breakdown: zero or NaN
        }
        if (track && !st.stop) iter_timer.reset();
      }
      if (st.stop) break;

      // Fused v = A p with r0·v.
      if (tid == 0) pass.reset();
      slots[static_cast<std::size_t>(tid)].a = product(spmv, p, v, r0);
#pragma omp barrier
      if (tid == 0) {
        spmv_seconds += pass.seconds();
        ++fused_passes;
      }
#pragma omp single
      {
        const double r0v = sum_a(slots, nt);
        if (!(std::abs(r0v) > 0.0)) {
          st.stop = true;
        } else {
          st.alpha = st.rho / r0v;
        }
      }
      if (st.stop) break;

      // Fused s = r - alpha v with ||s||^2.
      double ss_p = 0.0;
      for_owned([&](RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          s[k] = r[k] - st.alpha * v[k];
          ss_p += s[k] * s[k];
        }
      });
      slots[static_cast<std::size_t>(tid)].a = ss_p;
#pragma omp barrier
#pragma omp single
      {
        st.ss = sum_a(slots, nt);
        if (std::sqrt(st.ss) <= st.threshold) st.early = true;
      }
      if (st.early) {
        for_owned([&](RowRange rng) {
          for (index_t i = rng.begin; i < rng.end; ++i) {
            const auto k = static_cast<std::size_t>(i);
            x[k] += st.alpha * p[k];
            r[k] = s[k];
          }
        });
#pragma omp barrier
#pragma omp single
        {
          st.iters = it + 1;
          st.rr = st.ss;
          st.converged = true;
          if (track) {
            result.residual_history[static_cast<std::size_t>(it)] = std::sqrt(st.rr);
            result.iter_seconds[static_cast<std::size_t>(it)] = iter_timer.seconds();
          }
        }
        break;
      }

      // Fused t = A s with t·s, plus the owned-rows t·t in the same phase.
      if (tid == 0) pass.reset();
      const double ts_p = product(spmv, s, t, s);
      double tt_p = 0.0;
      for_owned([&](RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          tt_p += t[k] * t[k];
        }
      });
      slots[static_cast<std::size_t>(tid)] = {ts_p, tt_p};
#pragma omp barrier
      if (tid == 0) {
        spmv_seconds += pass.seconds();
        ++fused_passes;
      }
#pragma omp single
      {
        const double ts = sum_a(slots, nt);
        const double tt = sum_b(slots, nt);
        if (!(std::abs(tt) > 0.0)) {
          st.stop = true;
        } else {
          st.omega = ts / tt;
          if (!(std::abs(st.omega) > 0.0)) st.stop = true;
        }
      }
      if (st.stop) break;

      // Fused x, r updates with rho' = r0·r and r·r.
      double rho_n = 0.0, rr_n = 0.0;
      for_owned([&](RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          x[k] += st.alpha * p[k] + st.omega * s[k];
          r[k] = s[k] - st.omega * t[k];
          rho_n += r0[k] * r[k];
          rr_n += r[k] * r[k];
        }
      });
      slots[static_cast<std::size_t>(tid)] = {rho_n, rr_n};
#pragma omp barrier
#pragma omp single
      {
        const double rho_next = sum_a(slots, nt);
        st.beta = (rho_next / st.rho) * (st.alpha / st.omega);
        st.rho = rho_next;
        st.rr = sum_b(slots, nt);
        st.iters = it + 1;
        if (track) {
          result.residual_history[static_cast<std::size_t>(it)] = std::sqrt(st.rr);
          result.iter_seconds[static_cast<std::size_t>(it)] = iter_timer.seconds();
        }
      }

      // p = r + beta (p - omega v); barrier publishes p before the next SpMV.
      for_owned([&](RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          p[k] = r[k] + st.beta * (p[k] - st.omega * v[k]);
        }
      });
#pragma omp barrier
    }
  }

  if (track) {
    result.residual_history.resize(static_cast<std::size_t>(st.iters));
    result.iter_seconds.resize(static_cast<std::size_t>(st.iters));
  }
  result.iterations = st.iters;
  result.converged = st.converged;
  result.residual_norm = std::sqrt(st.rr);
  result.spmv_seconds = spmv_seconds;
  result.seconds = total.seconds();
  auto& reg = obs::Registry::global();
  reg.counter("engine.bicgstab.solves").add();
  reg.counter("engine.bicgstab.iterations").add(st.iters);
  reg.counter("engine.fused_spmv_dot.passes").add(fused_passes);
  if (track) {
    const obs::Histogram h = reg.histogram("engine.bicgstab.iter_micros");
    for (double s : result.iter_seconds) h.record(s * 1e6);
  }
  return result;
}

}  // namespace sparta::engine
