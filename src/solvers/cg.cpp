#include "solvers/cg.hpp"

#include <cmath>
#include <stdexcept>

#include "common/timer.hpp"

namespace sparta::solvers {

SpmvFn reference_spmv(const CsrMatrix& a) {
  return [&a](std::span<const value_t> x, std::span<value_t> y) { spmv_reference(a, x, y); };
}

double dot(std::span<const value_t> a, std::span<const value_t> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(std::span<const value_t> a) { return std::sqrt(dot(a, a)); }

void axpy(value_t alpha, std::span<const value_t> x, std::span<value_t> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void xpby(std::span<const value_t> x, value_t beta, std::span<value_t> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] + beta * y[i];
}

SolveResult cg(const CsrMatrix& a, std::span<const value_t> b, std::span<value_t> x,
               const CgOptions& options, const SpmvFn* spmv) {
  if (a.nrows() != a.ncols()) throw std::invalid_argument{"cg: matrix must be square"};
  const auto n = static_cast<std::size_t>(a.nrows());
  if (b.size() != n || x.size() != n) throw std::invalid_argument{"cg: vector size mismatch"};

  const SpmvFn default_spmv = reference_spmv(a);
  const SpmvFn& mv = spmv != nullptr ? *spmv : default_spmv;

  // Jacobi preconditioner: M^{-1} = 1/diag(A).
  aligned_vector<value_t> inv_diag;
  if (options.jacobi) {
    inv_diag.assign(n, 1.0);
    const index_t nrows = a.nrows();
    for (index_t i = 0; i < nrows; ++i) {
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

  SolveResult result;
  Timer total;

  aligned_vector<value_t> r(n), p(n), ap(n), z(n);

  // r = b - A x
  Timer spmv_timer;
  mv(x, ap);
  result.spmv_seconds += spmv_timer.seconds();
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];

  auto precondition = [&](std::span<const value_t> in, std::span<value_t> out) {
    if (options.jacobi) {
      for (std::size_t i = 0; i < n; ++i) out[i] = inv_diag[i] * in[i];
    } else {
      std::copy(in.begin(), in.end(), out.begin());
    }
  };

  precondition(r, z);
  std::copy(z.begin(), z.end(), p.begin());
  double rz = dot(r, z);
  const double b_norm = norm2(b);
  const double threshold = options.tolerance * (b_norm > 0.0 ? b_norm : 1.0);
  const int max_it = options.max_iterations;

  for (int it = 0; it < max_it; ++it) {
    result.residual_norm = norm2(r);
    if (result.residual_norm <= threshold) {
      result.converged = true;
      break;
    }
    spmv_timer.reset();
    mv(p, ap);
    result.spmv_seconds += spmv_timer.seconds();

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
  result.seconds = total.seconds();
  return result;
}

}  // namespace sparta::solvers
