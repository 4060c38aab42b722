// Coordinate (triplet) sparse matrix. The assembly format: generators and
// the Matrix Market reader produce COO, which is then converted to CSR.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace sparta {

/// One nonzero element.
struct Triplet {
  index_t row;
  index_t col;
  value_t value;

  friend bool operator==(const Triplet&, const Triplet&) = default;
};

/// Unordered triplet list with fixed dimensions. Duplicate (row, col)
/// entries are legal until compress() merges them.
class CooMatrix {
 public:
  CooMatrix(index_t nrows, index_t ncols);

  /// Bulk assembly: take ownership of a prebuilt triplet list and validate
  /// all coordinates in one pass. The fast path for loaders that know their
  /// entry count up front — no per-entry push_back or repeated bounds
  /// checks. Throws std::out_of_range on the first bad coordinate.
  static CooMatrix from_triplets(index_t nrows, index_t ncols,
                                 std::vector<Triplet> entries);

  [[nodiscard]] index_t nrows() const { return nrows_; }
  [[nodiscard]] index_t ncols() const { return ncols_; }
  [[nodiscard]] offset_t nnz() const { return static_cast<offset_t>(entries_.size()); }

  /// Append one entry. Throws std::out_of_range on bad coordinates.
  void add(index_t row, index_t col, value_t value);

  /// Reserve storage for n entries.
  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Sort by (row, col) and sum duplicates. Zero-valued results are kept:
  /// explicit zeros are meaningful for structure-only analyses.
  void compress();

  /// True if entries are sorted by (row, col) with no duplicates. A parallel
  /// scan; `threads` follows the builders' convention (0 means
  /// omp_get_max_threads()).
  [[nodiscard]] bool is_compressed(int threads = 0) const;

  [[nodiscard]] const std::vector<Triplet>& entries() const { return entries_; }
  [[nodiscard]] std::vector<Triplet>& entries() { return entries_; }

 private:
  index_t nrows_;
  index_t ncols_;
  std::vector<Triplet> entries_;
};

}  // namespace sparta
