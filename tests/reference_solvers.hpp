// Serial reference CG (optionally Jacobi-preconditioned) and BiCGSTAB, the
// iterations that engine::SolverEngine fuses, written over spmv_reference
// and serial BLAS-1: the same breakdown tests, early exits and residual
// bookkeeping as the engine, with sums in row order. test_engine checks the
// engine against them on the generator suite and on every plan; they fill
// only iterations, residual_norm and converged of the result.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

#include "common/types.hpp"
#include "engine/solver_engine.hpp"
#include "sparse/csr.hpp"

namespace sparta::reference {

inline double dot(std::span<const value_t> a, std::span<const value_t> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

inline double norm2(std::span<const value_t> a) { return std::sqrt(dot(a, a)); }

/// y += alpha * x
inline void axpy(value_t alpha, std::span<const value_t> x, std::span<value_t> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

/// y = x + beta * y
inline void xpby(std::span<const value_t> x, value_t beta, std::span<value_t> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] + beta * y[i];
}

/// CG for SPD A under opts.max_iterations, opts.tolerance (on ||r||/||b||)
/// and opts.jacobi; the thread and first-touch fields do not apply. `x`
/// holds the initial guess on entry and the solution on exit.
inline solvers::SolveResult cg(const CsrMatrix& a, std::span<const value_t> b,
                               std::span<value_t> x, const engine::EngineOptions& opts = {}) {
  const auto n = static_cast<std::size_t>(a.nrows());

  // Jacobi preconditioner: M^{-1} = 1/diag(A).
  aligned_vector<value_t> inv_diag;
  if (opts.jacobi) {
    inv_diag.assign(n, 1.0);
    for (index_t i = 0; i < a.nrows(); ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      for (std::size_t j = 0; j < cols.size(); ++j) {
        if (cols[j] == i && vals[j] != 0.0) {
          inv_diag[static_cast<std::size_t>(i)] = 1.0 / vals[j];
          break;
        }
      }
    }
  }
  const auto precondition = [&](std::span<const value_t> in, std::span<value_t> out) {
    if (opts.jacobi) {
      for (std::size_t i = 0; i < n; ++i) out[i] = inv_diag[i] * in[i];
    } else {
      std::copy(in.begin(), in.end(), out.begin());
    }
  };

  solvers::SolveResult result;
  aligned_vector<value_t> r(n), p(n), ap(n), z(n);

  // r = b - A x
  spmv_reference(a, x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
  precondition(r, z);
  std::copy(z.begin(), z.end(), p.begin());
  double rz = dot(r, z);
  const double b_norm = norm2(b);
  const double threshold = opts.tolerance * (b_norm > 0.0 ? b_norm : 1.0);

  for (int it = 0; it < opts.max_iterations; ++it) {
    result.residual_norm = norm2(r);
    if (result.residual_norm <= threshold) {
      result.converged = true;
      break;
    }
    spmv_reference(a, p, ap);

    // Breakdown: zero or negative curvature (A not SPD), or a NaN.
    const double p_ap = dot(p, ap);
    if (!(p_ap > 0.0)) break;
    const double alpha = rz / p_ap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    precondition(r, z);
    const double rz_next = dot(r, z);
    xpby(z, rz_next / rz, p);
    rz = rz_next;
    result.iterations = it + 1;
  }
  if (!result.converged) result.residual_norm = norm2(r);
  return result;
}

/// BiCGSTAB (van der Vorst 1992) under opts.max_iterations and
/// opts.tolerance (on ||r||/||b||); two products per iteration. `x` holds
/// the initial guess on entry and the solution on exit.
inline solvers::SolveResult bicgstab(const CsrMatrix& a, std::span<const value_t> b,
                                     std::span<value_t> x,
                                     const engine::EngineOptions& opts = {}) {
  const auto n = static_cast<std::size_t>(a.nrows());
  solvers::SolveResult result;
  aligned_vector<value_t> r(n), r0(n), p(n), v(n), s(n), t(n);

  // r = b - A x; r0 = r (shadow residual).
  spmv_reference(a, x, v);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - v[i];
  std::copy(r.begin(), r.end(), r0.begin());
  std::copy(r.begin(), r.end(), p.begin());

  const double b_norm = norm2(b);
  const double threshold = opts.tolerance * (b_norm > 0.0 ? b_norm : 1.0);
  double rho = dot(r0, r);

  for (int it = 0; it < opts.max_iterations; ++it) {
    result.residual_norm = norm2(r);
    if (result.residual_norm <= threshold) {
      result.converged = true;
      break;
    }
    if (!(std::abs(rho) > 0.0)) break;  // breakdown: zero or NaN

    spmv_reference(a, p, v);
    const double r0v = dot(r0, v);
    if (!(std::abs(r0v) > 0.0)) break;
    const double alpha = rho / r0v;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];

    if (norm2(s) <= threshold) {
      axpy(alpha, p, x);
      for (std::size_t i = 0; i < n; ++i) r[i] = s[i];
      result.iterations = it + 1;
      result.residual_norm = norm2(r);
      result.converged = true;
      break;
    }

    spmv_reference(a, s, t);
    const double tt = dot(t, t);
    if (!(std::abs(tt) > 0.0)) break;
    const double omega = dot(t, s) / tt;
    if (!(std::abs(omega) > 0.0)) break;

    for (std::size_t i = 0; i < n; ++i) x[i] += alpha * p[i] + omega * s[i];
    for (std::size_t i = 0; i < n; ++i) r[i] = s[i] - omega * t[i];

    const double rho_next = dot(r0, r);
    const double beta = (rho_next / rho) * (alpha / omega);
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * (p[i] - omega * v[i]);
    rho = rho_next;
    result.iterations = it + 1;
  }
  if (!result.converged) result.residual_norm = norm2(r);
  return result;
}

}  // namespace sparta::reference
