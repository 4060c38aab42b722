#include "solvers/bicgstab.hpp"

#include <cmath>
#include <stdexcept>

#include "common/timer.hpp"

namespace sparta::solvers {

SolveResult bicgstab(const CsrMatrix& a, std::span<const value_t> b, std::span<value_t> x,
                     const BicgstabOptions& options, const SpmvFn* spmv) {
  if (a.nrows() != a.ncols()) throw std::invalid_argument{"bicgstab: matrix must be square"};
  const auto n = static_cast<std::size_t>(a.nrows());
  if (b.size() != n || x.size() != n) {
    throw std::invalid_argument{"bicgstab: vector size mismatch"};
  }
  const SpmvFn default_spmv = reference_spmv(a);
  const SpmvFn& mv = spmv != nullptr ? *spmv : default_spmv;

  SolveResult result;
  Timer total;
  Timer spmv_timer;

  aligned_vector<value_t> r(n), r0(n), p(n), v(n), s(n), t(n);

  // r = b - A x; r0 = r (shadow residual).
  spmv_timer.reset();
  mv(x, v);
  result.spmv_seconds += spmv_timer.seconds();
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - v[i];
  std::copy(r.begin(), r.end(), r0.begin());
  std::copy(r.begin(), r.end(), p.begin());

  const double b_norm = norm2(b);
  const double threshold = options.tolerance * (b_norm > 0.0 ? b_norm : 1.0);
  const int max_it = options.max_iterations;
  double rho = dot(r0, r);

  for (int it = 0; it < max_it; ++it) {
    result.residual_norm = norm2(r);
    if (result.residual_norm <= threshold) {
      result.converged = true;
      break;
    }
    if (!(std::abs(rho) > 0.0)) break;  // breakdown: zero or NaN

    spmv_timer.reset();
    mv(p, v);
    result.spmv_seconds += spmv_timer.seconds();
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

    spmv_timer.reset();
    mv(s, t);
    result.spmv_seconds += spmv_timer.seconds();
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
  result.seconds = total.seconds();
  return result;
}

}  // namespace sparta::solvers
