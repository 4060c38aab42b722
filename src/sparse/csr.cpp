#include "sparse/csr.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "check/validate.hpp"
#include "sparse/build.hpp"

namespace sparta {

CsrMatrix::CsrMatrix(index_t nrows, index_t ncols, numa_vector<offset_t> rowptr,
                     numa_vector<index_t> colind, numa_vector<value_t> values)
    : nrows_(nrows),
      ncols_(ncols),
      rowptr_(std::move(rowptr)),
      colind_(std::move(colind)),
      values_(std::move(values)) {
  validate();
}

CsrMatrix CsrMatrix::from_coo(const CooMatrix& coo, int threads) {
  const int nthreads = build::resolve_threads(threads);
  const CooMatrix* src = &coo;
  CooMatrix tmp{0, 0};
  if (!coo.is_compressed(nthreads)) {
    tmp = coo;
    tmp.compress();
    src = &tmp;
  }
  build::PhaseRecorder rec{"csr"};
  const auto n = static_cast<std::ptrdiff_t>(src->nrows());
  const std::vector<Triplet>& entries = src->entries();
  const auto nnz = static_cast<std::ptrdiff_t>(entries.size());

  // Count pass. The entries are sorted by (row, col), so each rowptr entry
  // is independent: rowptr[i] = index of the first entry with row >= i —
  // exactly the value the serial count-then-prefix-sum scan produces.
  rec.phase("count");
  numa_vector<offset_t> rowptr(static_cast<std::size_t>(n) + 1);
  rowptr[0] = 0;
#pragma omp parallel for default(none) shared(rowptr, entries, n) num_threads(nthreads) \
    schedule(static)
  for (std::ptrdiff_t i = 1; i <= n; ++i) {
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), static_cast<index_t>(i),
        [](const Triplet& t, index_t row) { return t.row < row; });
    rowptr[static_cast<std::size_t>(i)] = static_cast<offset_t>(it - entries.begin());
  }

  // Fill pass: element-wise copy, first-touching colind/values in row order.
  rec.phase("fill");
  numa_vector<index_t> colind(static_cast<std::size_t>(nnz));
  numa_vector<value_t> values(static_cast<std::size_t>(nnz));
#pragma omp parallel for default(none) shared(colind, values, entries, nnz) \
    num_threads(nthreads) schedule(static)
  for (std::ptrdiff_t j = 0; j < nnz; ++j) {
    const auto k = static_cast<std::size_t>(j);
    colind[k] = entries[k].col;
    values[k] = entries[k].value;
  }
  rec.finish(rowptr.size() * sizeof(offset_t) + colind.size() * sizeof(index_t) +
             values.size() * sizeof(value_t));
  return CsrMatrix{src->nrows(), src->ncols(), std::move(rowptr), std::move(colind),
                   std::move(values)};
}

std::span<const index_t> CsrMatrix::row_cols(index_t i) const {
  const auto b = static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(i)]);
  const auto e = static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(i) + 1]);
  return std::span<const index_t>{colind_}.subspan(b, e - b);
}

std::span<const value_t> CsrMatrix::row_vals(index_t i) const {
  const auto b = static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(i)]);
  const auto e = static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(i) + 1]);
  return std::span<const value_t>{values_}.subspan(b, e - b);
}

std::size_t CsrMatrix::index_bytes() const {
  return rowptr_.size() * sizeof(offset_t) + colind_.size() * sizeof(index_t);
}

std::size_t CsrMatrix::value_bytes() const { return values_.size() * sizeof(value_t); }

std::size_t CsrMatrix::spmv_working_set_bytes() const {
  return bytes() + (static_cast<std::size_t>(ncols_) + static_cast<std::size_t>(nrows_)) *
                       sizeof(value_t);
}

void CsrMatrix::validate() const {
  // Full structural check, unconditionally (the historical contract of this
  // entry point — callers rely on malformed arrays throwing in any build).
  // The check-level machinery gates only the *wired* validations of the
  // derived formats; see src/check/.
  check::validate_csr({nrows_, ncols_, rowptr_, colind_, values_.size()},
                      check::Level::kFull);
}

CsrMatrix CsrMatrix::transpose() const {
  const auto n = static_cast<std::size_t>(ncols_);
  numa_vector<offset_t> rowptr(n + 1, 0);
  for (index_t c : colind_) ++rowptr[static_cast<std::size_t>(c) + 1];
  for (std::size_t i = 0; i < n; ++i) rowptr[i + 1] += rowptr[i];
  // The scatter writes every destination slot exactly once (cursor walks
  // each target row left to right), so default-init storage is safe.
  numa_vector<index_t> colind(colind_.size());
  numa_vector<value_t> values(values_.size());
  aligned_vector<offset_t> cursor(rowptr.begin(), rowptr.end() - 1);
  for (index_t r = 0; r < nrows_; ++r) {
    const auto cols = row_cols(r);
    const auto vals = row_vals(r);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      const auto dst = static_cast<std::size_t>(cursor[static_cast<std::size_t>(cols[j])]++);
      colind[dst] = r;
      values[dst] = vals[j];
    }
  }
  return CsrMatrix{ncols_, nrows_, std::move(rowptr), std::move(colind), std::move(values)};
}

CsrMatrix CsrMatrix::slice_rows(index_t begin, index_t end) const {
  if (begin < 0 || end < begin || end > nrows_) {
    throw std::out_of_range{"csr: slice_rows range invalid"};
  }
  const auto b = static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(begin)]);
  const auto e = static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(end)]);
  numa_vector<offset_t> rowptr(static_cast<std::size_t>(end - begin) + 1);
  for (index_t i = begin; i <= end; ++i) {
    rowptr[static_cast<std::size_t>(i - begin)] =
        rowptr_[static_cast<std::size_t>(i)] - static_cast<offset_t>(b);
  }
  numa_vector<index_t> colind(colind_.begin() + static_cast<std::ptrdiff_t>(b),
                              colind_.begin() + static_cast<std::ptrdiff_t>(e));
  numa_vector<value_t> values(values_.begin() + static_cast<std::ptrdiff_t>(b),
                              values_.begin() + static_cast<std::ptrdiff_t>(e));
  return CsrMatrix{end - begin, ncols_, std::move(rowptr), std::move(colind),
                   std::move(values)};
}

void spmv_reference(const CsrMatrix& a, std::span<const value_t> x, std::span<value_t> y) {
  if (x.size() != static_cast<std::size_t>(a.ncols()) ||
      y.size() != static_cast<std::size_t>(a.nrows())) {
    throw std::invalid_argument{"spmv_reference: vector size mismatch"};
  }
  const auto rowptr = a.rowptr();
  const auto colind = a.colind();
  const auto values = a.values();
  for (index_t i = 0; i < a.nrows(); ++i) {
    value_t acc = 0.0;
    for (offset_t j = rowptr[static_cast<std::size_t>(i)];
         j < rowptr[static_cast<std::size_t>(i) + 1]; ++j) {
      acc += values[static_cast<std::size_t>(j)] *
             x[static_cast<std::size_t>(colind[static_cast<std::size_t>(j)])];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
}

}  // namespace sparta
