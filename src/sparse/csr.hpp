// Compressed Sparse Row storage — the baseline format of the paper and the
// substrate every optimization in the pool starts from.
#pragma once

#include <span>

#include "common/numa.hpp"
#include "common/types.hpp"
#include "sparse/coo.hpp"

namespace sparta {

/// Immutable-after-construction CSR matrix.
///
/// Storage: `rowptr` (nrows+1 offsets), `colind` (nnz column indices, sorted
/// within each row), `values` (nnz doubles). Memory footprint accessors are
/// provided because the per-class performance bounds of the paper are
/// computed directly from byte counts.
class CsrMatrix {
 public:
  CsrMatrix() : nrows_(0), ncols_(0), rowptr_{0} {}

  /// Take ownership of prebuilt arrays. Throws std::invalid_argument if the
  /// structure is malformed (see validate()). Storage is numa_vector so
  /// producers can size exactly and first-touch from their fill threads.
  CsrMatrix(index_t nrows, index_t ncols, numa_vector<offset_t> rowptr,
            numa_vector<index_t> colind, numa_vector<value_t> values);

  /// Build from a COO matrix (compresses a copy if needed). The conversion
  /// is a two-pass parallel builder: rowptr boundaries by binary search over
  /// the sorted entries, then an element-wise parallel fill that first-
  /// touches colind/values. `threads` = 0 means omp_get_max_threads(); the
  /// output is bit-identical for every thread count.
  static CsrMatrix from_coo(const CooMatrix& coo, int threads = 0);

  [[nodiscard]] index_t nrows() const { return nrows_; }
  [[nodiscard]] index_t ncols() const { return ncols_; }
  [[nodiscard]] offset_t nnz() const { return rowptr_.back(); }

  [[nodiscard]] std::span<const offset_t> rowptr() const { return rowptr_; }
  [[nodiscard]] std::span<const index_t> colind() const { return colind_; }
  [[nodiscard]] std::span<const value_t> values() const { return values_; }

  /// Number of nonzeros in row i.
  [[nodiscard]] index_t row_nnz(index_t i) const {
    return static_cast<index_t>(rowptr_[static_cast<std::size_t>(i) + 1] -
                                rowptr_[static_cast<std::size_t>(i)]);
  }

  /// Column indices / values of row i.
  [[nodiscard]] std::span<const index_t> row_cols(index_t i) const;
  [[nodiscard]] std::span<const value_t> row_vals(index_t i) const;

  /// Bytes of the index structures (rowptr + colind).
  [[nodiscard]] std::size_t index_bytes() const;
  /// Bytes of the value array.
  [[nodiscard]] std::size_t value_bytes() const;
  /// Total matrix bytes (index + value).
  [[nodiscard]] std::size_t bytes() const { return index_bytes() + value_bytes(); }

  /// Working-set bytes of one SpMV: matrix + x + y.
  [[nodiscard]] std::size_t spmv_working_set_bytes() const;

  /// Structural + ordering invariants; throws std::invalid_argument with a
  /// description on the first violation.
  void validate() const;

  /// Transpose (used by is_symmetric and by tests that build A + A^T).
  [[nodiscard]] CsrMatrix transpose() const;

  /// Copy of rows [begin, end) as a standalone (end-begin) x ncols matrix.
  /// Used by the partitioned bound analysis (paper's future-work idea of
  /// looking at the matrix "in partitions, instead of as a whole").
  [[nodiscard]] CsrMatrix slice_rows(index_t begin, index_t end) const;

  friend bool operator==(const CsrMatrix&, const CsrMatrix&) = default;

 private:
  index_t nrows_;
  index_t ncols_;
  numa_vector<offset_t> rowptr_;
  numa_vector<index_t> colind_;
  numa_vector<value_t> values_;
};

/// Reference (serial, obviously-correct) SpMV: y = A * x. Used as the golden
/// implementation that every optimized kernel is tested against.
void spmv_reference(const CsrMatrix& a, std::span<const value_t> x, std::span<value_t> y);

}  // namespace sparta
