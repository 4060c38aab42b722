// Symmetric CSR storage: strict lower triangle + dense diagonal.
//
// The paper classifies most SpMV kernels as memory-bandwidth bound and
// prescribes matrix-traffic compression as the primary mitigation; for
// symmetric inputs (CG's SPD systems are the flagship case) the strongest
// compression available is to simply not store the upper triangle. One
// stored nonzero a(i, j) with j < i then contributes to both y[i] (the
// direct product with x[j]) and y[j] (the mirrored product with x[i]),
// cutting the streamed colind/values bytes roughly in half at the price of
// a scattered write — resolved by the conflict-free kernels in
// kernels/spmv_sym.hpp, not by atomics.
//
// Layout:
//  - `rowptr`/`colind`/`values`: CSR of the strict lower triangle (every
//    stored column index is < its row index; columns sorted within a row);
//  - `diag`: dense diagonal, one value per row, 0.0 where the source had no
//    diagonal entry;
//  - `diag_present`: one flag byte per row so expand() reproduces the source
//    pattern bit-for-bit, including explicitly stored zero diagonals.
//
// Built from a general CSR via the established two-pass parallel
// count/scan/fill pipeline (DESIGN.md §13) with a serial reference twin;
// the output is bit-identical for every thread count. The builders verify
// the source is square and pattern+value symmetric: the count pass compares
// the strict-lower and strict-upper counts, and the fill pass finds a
// bit-equal upper mirror for every lower entry. try_build() reports a
// failure as std::nullopt; build() and build_serial() throw
// check::ValidationError.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/numa.hpp"
#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace sparta {

class SymCsrMatrix {
 public:
  SymCsrMatrix() : rowptr_{0} {}

  /// Parallel two-pass build from a general CSR. Returns std::nullopt when
  /// the source is not square or not exactly symmetric; a source with
  /// unequal strict-lower and strict-upper counts is rejected by the count
  /// pass, before anything is allocated. `threads` = 0 means
  /// omp_get_max_threads(); negative throws std::invalid_argument.
  static std::optional<SymCsrMatrix> try_build(const CsrMatrix& a, int threads = 0);

  /// try_build() that throws check::ValidationError instead (violation
  /// "symcsr.source.square" or "symcsr.source.mirror").
  static SymCsrMatrix build(const CsrMatrix& a, int threads = 0);

  /// Serial reference twin of build() — the golden output the parallel
  /// builder is asserted bit-identical against.
  static SymCsrMatrix build_serial(const CsrMatrix& a);

  /// Reconstruct the general (eagerly mirrored) CSR. Test-only round-trip
  /// path: the result equals the source matrix bit-for-bit.
  [[nodiscard]] CsrMatrix expand() const;

  [[nodiscard]] index_t nrows() const { return nrows_; }
  [[nodiscard]] index_t ncols() const { return nrows_; }
  /// Nonzeros of the *source* matrix this storage represents
  /// (2 * lower_nnz() + stored diagonal entries).
  [[nodiscard]] offset_t nnz() const { return source_nnz_; }
  /// Strictly-lower-triangular entries actually stored.
  [[nodiscard]] offset_t lower_nnz() const { return rowptr_.back(); }
  /// Diagonal entries present in the source pattern.
  [[nodiscard]] index_t diag_entries() const { return diag_entries_; }

  [[nodiscard]] std::span<const offset_t> rowptr() const { return rowptr_; }
  [[nodiscard]] std::span<const index_t> colind() const { return colind_; }
  [[nodiscard]] std::span<const value_t> values() const { return values_; }
  [[nodiscard]] std::span<const value_t> diag() const { return diag_; }
  [[nodiscard]] std::span<const std::uint8_t> diag_present() const { return diag_present_; }

  /// Strictly-lower column indices / values of row i.
  [[nodiscard]] std::span<const index_t> row_cols(index_t i) const;
  [[nodiscard]] std::span<const value_t> row_vals(index_t i) const;

  /// Bytes of the index structures (rowptr + colind).
  [[nodiscard]] std::size_t index_bytes() const;
  /// Bytes of the value arrays (lower values + dense diagonal).
  [[nodiscard]] std::size_t value_bytes() const;
  /// Total bytes the SpMV kernel streams (index + value; the presence flags
  /// are build/expand metadata the kernel never reads).
  [[nodiscard]] std::size_t bytes() const { return index_bytes() + value_bytes(); }

  friend bool operator==(const SymCsrMatrix&, const SymCsrMatrix&) = default;

 private:
  index_t nrows_ = 0;
  offset_t source_nnz_ = 0;
  index_t diag_entries_ = 0;
  numa_vector<offset_t> rowptr_;
  numa_vector<index_t> colind_;
  numa_vector<value_t> values_;
  numa_vector<value_t> diag_;
  numa_vector<std::uint8_t> diag_present_;
};

}  // namespace sparta
