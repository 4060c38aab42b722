#include "sparse/properties.hpp"

#include <cmath>

namespace sparta {

RowScan scan_rows(const CsrMatrix& m, int values_per_line) {
  const auto n = static_cast<std::size_t>(m.nrows());
  RowScan scan;
  scan.nnz.resize(n);
  scan.bandwidth.resize(n);
  scan.scatter.resize(n);
  scan.clustering.resize(n);
  scan.misses.resize(n);

  // Each row writes only its own slots, so rows scan in parallel and every
  // value matches the serial scan at any thread count.
  const index_t nrows = m.nrows();
#pragma omp parallel for default(none) shared(m, scan, nrows, values_per_line) schedule(static)
  for (index_t i = 0; i < nrows; ++i) {
    const auto cols = m.row_cols(i);
    const auto idx = static_cast<std::size_t>(i);
    const auto nnz_i = static_cast<double>(cols.size());
    scan.nnz[idx] = nnz_i;
    if (cols.empty()) continue;

    const double bw = static_cast<double>(cols.back() - cols.front());
    scan.bandwidth[idx] = bw;
    scan.scatter[idx] = bw > 0.0 ? nnz_i / bw : 0.0;

    index_t ngroups = 1;
    double misses = 1.0;  // first access of the row: compulsory miss
    for (std::size_t j = 1; j < cols.size(); ++j) {
      const index_t gap = cols[j] - cols[j - 1];
      if (gap > 1) ++ngroups;
      if (gap > values_per_line) misses += 1.0;
    }
    scan.clustering[idx] = static_cast<double>(ngroups) / nnz_i;
    scan.misses[idx] = misses;
  }
  return scan;
}

bool is_symmetric(const CsrMatrix& m, value_t tolerance) {
  if (m.nrows() != m.ncols()) return false;
  const CsrMatrix t = m.transpose();
  if (t.rowptr().size() != m.rowptr().size()) return false;
  for (std::size_t i = 0; i < m.rowptr().size(); ++i) {
    if (m.rowptr()[i] != t.rowptr()[i]) return false;
  }
  for (std::size_t j = 0; j < m.colind().size(); ++j) {
    if (m.colind()[j] != t.colind()[j]) return false;
    if (std::abs(m.values()[j] - t.values()[j]) > tolerance) return false;
  }
  return true;
}

index_t count_empty_rows(const CsrMatrix& m) {
  index_t count = 0;
  for (index_t i = 0; i < m.nrows(); ++i) {
    if (m.row_nnz(i) == 0) ++count;
  }
  return count;
}

bool has_full_diagonal(const CsrMatrix& m) {
  if (m.nrows() != m.ncols()) return false;
  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    bool found = false;
    for (std::size_t j = 0; j < cols.size(); ++j) {
      if (cols[j] == i) {
        found = vals[j] != 0.0;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace sparta
