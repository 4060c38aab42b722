// Delta-compressed column indices — the paper's MB-class optimization
// (Table II).
//
// Column indices are stored as deltas from the previous nonzero in the same
// row (the first nonzero of each row stores its absolute column in a
// separate array). All deltas use a single width — 8 or 16 bits, "but never
// both, in order to limit the branching overhead" (paper §III-E). When a
// matrix has a delta that does not fit in 16 bits, compression is refused
// and the caller keeps plain CSR.
//
// Only the column stream is compressed, so the format stores only first_col
// and the delta stream: a delta kernel reads rowptr and values from the
// source CSR it was compressed from (or from first-touch copies of them).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/numa.hpp"
#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace sparta {

/// Width of the delta stream.
enum class DeltaWidth : std::uint8_t { k8 = 1, k16 = 2 };

/// The compressed column stream of a CSR matrix.
class DeltaCsrMatrix {
 public:
  /// Attempt compression. Returns std::nullopt when any intra-row column
  /// delta exceeds 16 bits (the paper's scheme then does not apply). The
  /// conversion is a parallel two-pass builder over exactly-sized,
  /// first-touched arrays; `threads` = 0 means omp_get_max_threads() and the
  /// output is bit-identical to compress_serial for every thread count.
  static std::optional<DeltaCsrMatrix> compress(const CsrMatrix& csr, int threads = 0);

  /// Single-threaded reference builder (the pre-pipeline implementation);
  /// kept as the bit-identity oracle for tests and the preprocessing bench.
  static std::optional<DeltaCsrMatrix> compress_serial(const CsrMatrix& csr);

  /// Smallest single width that can represent every delta of `csr`,
  /// or std::nullopt when 16 bits do not suffice.
  static std::optional<DeltaWidth> pick_width(const CsrMatrix& csr);

  [[nodiscard]] DeltaWidth width() const { return width_; }

  [[nodiscard]] std::span<const index_t> first_col() const { return first_col_; }
  [[nodiscard]] std::span<const std::uint8_t> deltas8() const { return deltas8_; }
  [[nodiscard]] std::span<const std::uint16_t> deltas16() const { return deltas16_; }

  /// Bytes of the compressed column stream (first_col + deltas), which
  /// stands in for the source's colind.
  [[nodiscard]] std::size_t bytes() const;

  /// `source`, the matrix this stream was compressed from, with its colind
  /// rebuilt from the stream (round-trip tested).
  [[nodiscard]] CsrMatrix decompress(const CsrMatrix& source) const;

 private:
  DeltaCsrMatrix() = default;

  DeltaWidth width_ = DeltaWidth::k8;
  numa_vector<index_t> first_col_;      // absolute column of each row's first nnz
  numa_vector<std::uint8_t> deltas8_;   // used when width_ == k8; nnz entries
  numa_vector<std::uint16_t> deltas16_; // used when width_ == k16; nnz entries
};

}  // namespace sparta
