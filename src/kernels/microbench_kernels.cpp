#include "kernels/microbench_kernels.hpp"

namespace sparta::kernels {

numa_vector<index_t> regularized_colind(const CsrMatrix& a) {
  // Each row writes only its own slots, so the fill runs in parallel and
  // first-touches colind' from the threads instead of zero-filling it.
  numa_vector<index_t> colind(static_cast<std::size_t>(a.nnz()));
  const auto rowptr = a.rowptr();
  const index_t nrows = a.nrows();
#pragma omp parallel for default(none) shared(colind, rowptr, nrows) schedule(static)
  for (index_t i = 0; i < nrows; ++i) {
    for (offset_t j = rowptr[static_cast<std::size_t>(i)];
         j < rowptr[static_cast<std::size_t>(i) + 1]; ++j) {
      colind[static_cast<std::size_t>(j)] = i;
    }
  }
  return colind;
}

void spmv_with_colind(const CsrMatrix& a, std::span<const index_t> colind,
                      std::span<const value_t> x, std::span<value_t> y,
                      std::span<const RowRange> parts) {
  const auto rowptr = a.rowptr();
  const auto values = a.values();
#pragma omp parallel for default(none) shared(parts, rowptr, colind, values, x, y) \
    schedule(static, 1)
  for (std::ptrdiff_t p = 0; p < static_cast<std::ptrdiff_t>(parts.size()); ++p) {
    const RowRange r = parts[static_cast<std::size_t>(p)];
    for (index_t i = r.begin; i < r.end; ++i) {
      value_t acc = 0.0;
      for (offset_t j = rowptr[static_cast<std::size_t>(i)];
           j < rowptr[static_cast<std::size_t>(i) + 1]; ++j) {
        const auto k = static_cast<std::size_t>(j);
        acc += values[k] * x[static_cast<std::size_t>(colind[k])];
      }
      y[static_cast<std::size_t>(i)] = acc;
    }
  }
}

void spmv_unit_stride(const CsrMatrix& a, std::span<const value_t> x, std::span<value_t> y,
                      std::span<const RowRange> parts) {
  const auto rowptr = a.rowptr();
  const auto values = a.values();
#pragma omp parallel for default(none) shared(parts, rowptr, values, x, y) \
    schedule(static, 1)
  for (std::ptrdiff_t p = 0; p < static_cast<std::ptrdiff_t>(parts.size()); ++p) {
    const RowRange r = parts[static_cast<std::size_t>(p)];
    for (index_t i = r.begin; i < r.end; ++i) {
      value_t acc = 0.0;
      const value_t xi = x[static_cast<std::size_t>(i)];
      for (offset_t j = rowptr[static_cast<std::size_t>(i)];
           j < rowptr[static_cast<std::size_t>(i) + 1]; ++j) {
        acc += values[static_cast<std::size_t>(j)] * xi;
      }
      y[static_cast<std::size_t>(i)] = acc;
    }
  }
}

}  // namespace sparta::kernels
