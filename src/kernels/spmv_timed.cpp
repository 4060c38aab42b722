#include "kernels/spmv_timed.hpp"

#include <omp.h>

#include "kernels/spmv_kernels.hpp"

namespace sparta::kernels {

TimedRun spmv_csr_timed(const CsrMatrix& a, std::span<const value_t> x, std::span<value_t> y,
                        std::span<const RowRange> parts) {
  TimedRun run;
  run.thread_seconds.assign(parts.size(), 0.0);
  const auto rowptr = a.rowptr();
  const auto colind = a.colind();
  const auto values = a.values();

  const double start = omp_get_wtime();
#pragma omp parallel for default(none) shared(parts, rowptr, colind, values, x, y, run) \
    schedule(static, 1)
  for (std::ptrdiff_t p = 0; p < static_cast<std::ptrdiff_t>(parts.size()); ++p) {
    const double t0 = omp_get_wtime();
    const RowRange r = parts[static_cast<std::size_t>(p)];
    for (index_t i = r.begin; i < r.end; ++i) {
      y[static_cast<std::size_t>(i)] = detail::csr_row<false, false, false>(
          colind.data(), values.data(), x.data(), rowptr[static_cast<std::size_t>(i)],
          rowptr[static_cast<std::size_t>(i) + 1]);
    }
    run.thread_seconds[static_cast<std::size_t>(p)] = omp_get_wtime() - t0;
  }
  run.seconds = omp_get_wtime() - start;
  return run;
}

}  // namespace sparta::kernels
