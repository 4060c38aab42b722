// Row partitioning schemes for parallel SpMV.
//
// The paper's baseline uses "a static one-dimensional row partitioning
// scheme, where each partition has approximately equal number of nonzero
// elements and is assigned to a single thread" (§IV-A). The vendor baseline
// uses a conventional equal-rows static split, and the IMB optimization can
// switch to dynamic (OpenMP "auto"-like) scheduling or split the long rows
// (paper Fig. 6/7): every thread takes a slice of each row above
// long_row_threshold(), and the other rows are balanced with those rows
// counted as empty.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace sparta {

/// Half-open row range [begin, end) owned by one thread.
struct RowRange {
  index_t begin;
  index_t end;

  [[nodiscard]] index_t size() const { return end - begin; }
  friend bool operator==(const RowRange&, const RowRange&) = default;
};

/// Partition rows so that each of `nparts` ranges carries approximately
/// equal nonzeros (binary search over rowptr for each boundary). Ranges
/// cover [0, nrows) exactly, in order, some possibly empty. The boundary
/// searches run in parallel for large `nparts` (`threads` = 0 means
/// omp_get_max_threads()); the result is identical for every thread count.
std::vector<RowRange> partition_balanced_nnz(const CsrMatrix& m, int nparts,
                                             int threads = 0);

/// The same partition with the rows in `empty_rows` (ascending) counted as
/// empty: equal to partition_balanced_nnz over a copy of `m` with those rows
/// emptied, without building the copy.
std::vector<RowRange> partition_balanced_nnz(const CsrMatrix& m,
                                             std::span<const index_t> empty_rows, int nparts,
                                             int threads = 0);

/// Rows with at most this many nonzeros are never long.
inline constexpr index_t kMinLongRow = 1024;

/// The long-row threshold: max(kMinLongRow, 8 * average row nnz). Rows with
/// more nonzeros than this are long.
index_t long_row_threshold(const CsrMatrix& m);

/// The rows above long_row_threshold(m), ascending.
std::vector<index_t> long_rows(const CsrMatrix& m);

/// Conventional static split: approximately equal row counts. Closed-form
/// per-partition bounds, parallel for large `nparts`.
std::vector<RowRange> partition_equal_rows(index_t nrows, int nparts, int threads = 0);

/// Nonzeros inside a row range.
offset_t range_nnz(const CsrMatrix& m, RowRange r);

}  // namespace sparta
