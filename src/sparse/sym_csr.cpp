#include "sparse/sym_csr.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "check/contract.hpp"
#include "check/validate.hpp"
#include "sparse/build.hpp"
#include "sparse/coo.hpp"

namespace sparta {

namespace {

/// Per-chunk classification totals for the parallel count pass.
struct ChunkTally {
  offset_t lower_nnz = 0;
  offset_t upper_nnz = 0;
  index_t diag_rows = 0;
};

/// True iff row `row` of the source holds column `col` with the
/// bit-identical value `v` (binary search; columns are sorted within a row).
/// The fill passes check each lower entry (i, c), c < i, against the
/// source's (c, i): with equal strict-lower and strict-upper counts, finding
/// every lower entry's mirror proves symmetry, since distinct lower entries
/// have distinct mirrors.
bool source_has(const CsrMatrix& a, index_t row, index_t col, value_t v) {
  const auto cols = a.row_cols(row);
  const auto it = std::lower_bound(cols.begin(), cols.end(), col);
  return it != cols.end() && *it == col &&
         a.row_vals(row)[static_cast<std::size_t>(it - cols.begin())] == v;
}

/// True iff source position `k` lies in row `row` and holds column `col`
/// with the bit-identical value `v` — the cursor form of source_has.
bool source_has_at(const CsrMatrix& a, index_t row, index_t col, value_t v, std::size_t k) {
  return k < static_cast<std::size_t>(a.rowptr()[static_cast<std::size_t>(row) + 1]) &&
         a.colind()[k] == col && a.values()[k] == v;
}

[[noreturn]] void fail_square() {
  throw check::ValidationError{"symcsr.source.square",
                               "symmetric storage requires a square matrix"};
}

[[noreturn]] void fail_mirror() {
  throw check::ValidationError{
      "symcsr.source.mirror",
      "source matrix is not symmetric: an upper-triangle entry has no bit-equal lower "
      "mirror"};
}

}  // namespace

std::optional<SymCsrMatrix> SymCsrMatrix::try_build(const CsrMatrix& a, int threads) {
  const int nthreads = build::resolve_threads(threads);
  if (a.nrows() != a.ncols()) return std::nullopt;
  build::PhaseRecorder rec{"symcsr"};

  // Count pass: rows classify their entries independently (strict lower /
  // diagonal / strict upper); fixed row chunks tally each kind. Chunking
  // never leaks into the output — the scan turns tallies into offsets.
  rec.phase("count");
  const auto n = static_cast<std::size_t>(a.nrows());
  const int nchunks = nthreads;
  std::vector<ChunkTally> tally(static_cast<std::size_t>(nchunks));
#pragma omp parallel for default(none) shared(tally, a, n, nchunks) num_threads(nthreads) \
    schedule(static)
  for (int cidx = 0; cidx < nchunks; ++cidx) {
    ChunkTally t;
    const auto begin = build::chunk_begin(n, nchunks, cidx);
    const auto end = build::chunk_begin(n, nchunks, cidx + 1);
    for (std::size_t i = begin; i < end; ++i) {
      const auto row = static_cast<index_t>(i);
      for (const index_t c : a.row_cols(row)) {
        if (c < row) {
          ++t.lower_nnz;
        } else if (c > row) {
          ++t.upper_nnz;
        } else {
          ++t.diag_rows;
        }
      }
    }
    tally[static_cast<std::size_t>(cidx)] = t;
  }

  // Scan pass: exclusive prefix over the lower tallies -> per-chunk bases.
  // A symmetric pattern balances its strict triangles, so an unbalanced one
  // is rejected here, before anything is allocated.
  rec.phase("scan");
  std::vector<offset_t> base(static_cast<std::size_t>(nchunks));
  offset_t lower_total = 0;
  offset_t upper_total = 0;
  index_t diag_total = 0;
  for (int cidx = 0; cidx < nchunks; ++cidx) {
    base[static_cast<std::size_t>(cidx)] = lower_total;
    lower_total += tally[static_cast<std::size_t>(cidx)].lower_nnz;
    upper_total += tally[static_cast<std::size_t>(cidx)].upper_nnz;
    diag_total += tally[static_cast<std::size_t>(cidx)].diag_rows;
  }
  if (upper_total != lower_total) return std::nullopt;

  // Fill pass: each chunk walks its rows with a running offset seeded from
  // its base, writing every output slot absolutely so the layout is
  // identical to the serial row-order build and every default-init
  // numa_vector page is first-touched by its filling thread. Each lower
  // entry (i, c) is checked against the source's (c, i) on the way. Rows
  // of a chunk meet the mirrors in one source row c in ascending i, which
  // is row c's column order, so a row c of the same chunk keeps a cursor
  // on its next unmatched upper entry (`next_upper[c]`, set when row c is
  // filled); a row c of an earlier chunk is binary-searched. A chunk stops
  // at its first miss and records it; the caller sees nullopt.
  rec.phase("fill");
  SymCsrMatrix out;
  out.nrows_ = a.nrows();
  out.source_nnz_ = a.nnz();
  out.diag_entries_ = diag_total;
  out.rowptr_ = numa_vector<offset_t>(n + 1);
  out.rowptr_[0] = 0;
  out.colind_ = numa_vector<index_t>(static_cast<std::size_t>(lower_total));
  out.values_ = numa_vector<value_t>(static_cast<std::size_t>(lower_total));
  out.diag_ = numa_vector<value_t>(n);
  out.diag_present_ = numa_vector<std::uint8_t>(n);
  numa_vector<offset_t> next_upper(n);
  std::vector<std::uint8_t> chunk_ok(static_cast<std::size_t>(nchunks), 1);
#pragma omp parallel for default(none) shared(out, a, base, next_upper, chunk_ok, n, nchunks) \
    num_threads(nthreads) schedule(static)
  for (int cidx = 0; cidx < nchunks; ++cidx) {
    const auto rowptr = a.rowptr();
    const auto colind = a.colind();
    const auto values = a.values();
    offset_t off = base[static_cast<std::size_t>(cidx)];
    bool ok = true;
    const auto begin = build::chunk_begin(n, nchunks, cidx);
    const auto end = build::chunk_begin(n, nchunks, cidx + 1);
    for (std::size_t i = begin; i < end && ok; ++i) {
      const auto row = static_cast<index_t>(i);
      auto j = static_cast<std::size_t>(rowptr[i]);
      const auto row_end = static_cast<std::size_t>(rowptr[i + 1]);
      for (; j < row_end && colind[j] < row; ++j) {
        const index_t c = colind[j];
        const value_t v = values[j];
        out.colind_[static_cast<std::size_t>(off)] = c;
        out.values_[static_cast<std::size_t>(off)] = v;
        ++off;
        const auto ci = static_cast<std::size_t>(c);
        if (ci < begin) {
          ok = ok && source_has(a, c, row, v);
        } else {
          const auto k = static_cast<std::size_t>(next_upper[ci]);
          ok = ok && source_has_at(a, c, row, v, k);
          next_upper[ci] = static_cast<offset_t>(k + 1);
        }
      }
      value_t d = 0.0;
      std::uint8_t present = 0;
      if (j < row_end && colind[j] == row) {
        d = values[j];
        present = 1;
        ++j;
      }
      next_upper[i] = static_cast<offset_t>(j);
      out.diag_[i] = d;
      out.diag_present_[i] = present;
      out.rowptr_[i + 1] = off;
    }
    chunk_ok[static_cast<std::size_t>(cidx)] = ok ? 1 : 0;
  }
  for (const std::uint8_t ok : chunk_ok) {
    if (ok == 0) return std::nullopt;
  }
  rec.finish(out.bytes());
  // Triangle purity, diagonal accounting and mirror-nnz conservation
  // against the source (check/validate.hpp).
  SPARTA_CHECK_STRUCTURE(out, a);
  return out;
}

SymCsrMatrix SymCsrMatrix::build(const CsrMatrix& a, int threads) {
  auto out = try_build(a, threads);
  if (!out) {
    if (a.nrows() != a.ncols()) fail_square();
    fail_mirror();
  }
  return std::move(*out);
}

SymCsrMatrix SymCsrMatrix::build_serial(const CsrMatrix& a) {
  if (a.nrows() != a.ncols()) fail_square();
  SymCsrMatrix out;
  out.nrows_ = a.nrows();
  out.source_nnz_ = a.nnz();

  const auto n = static_cast<std::size_t>(a.nrows());
  out.rowptr_ = numa_vector<offset_t>(n + 1);
  out.rowptr_[0] = 0;
  out.diag_ = numa_vector<value_t>(n);
  out.diag_present_ = numa_vector<std::uint8_t>(n);
  offset_t upper_total = 0;
  bool mirrored = true;
  for (index_t i = 0; i < a.nrows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    value_t d = 0.0;
    std::uint8_t present = 0;
    for (std::size_t j = 0; j < cols.size(); ++j) {
      if (cols[j] < i) {
        out.colind_.push_back(cols[j]);
        out.values_.push_back(vals[j]);
        mirrored = mirrored && source_has(a, cols[j], i, vals[j]);
      } else if (cols[j] > i) {
        ++upper_total;
      } else {
        d = vals[j];
        present = 1;
        ++out.diag_entries_;
      }
    }
    out.diag_[static_cast<std::size_t>(i)] = d;
    out.diag_present_[static_cast<std::size_t>(i)] = present;
    out.rowptr_[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(out.colind_.size());
  }
  if (!mirrored || upper_total != out.rowptr_.back()) fail_mirror();
  SPARTA_CHECK_STRUCTURE(out, a);
  return out;
}

CsrMatrix SymCsrMatrix::expand() const {
  CooMatrix coo{nrows_, nrows_};
  coo.reserve(static_cast<std::size_t>(source_nnz_));
  for (index_t i = 0; i < nrows_; ++i) {
    const auto cols = row_cols(i);
    const auto vals = row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      coo.add(i, cols[j], vals[j]);
      coo.add(cols[j], i, vals[j]);
    }
    if (diag_present_[static_cast<std::size_t>(i)] != 0) {
      coo.add(i, i, diag_[static_cast<std::size_t>(i)]);
    }
  }
  return CsrMatrix::from_coo(coo);
}

std::span<const index_t> SymCsrMatrix::row_cols(index_t i) const {
  const auto b = static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(i)]);
  const auto e = static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(i) + 1]);
  return std::span<const index_t>{colind_}.subspan(b, e - b);
}

std::span<const value_t> SymCsrMatrix::row_vals(index_t i) const {
  const auto b = static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(i)]);
  const auto e = static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(i) + 1]);
  return std::span<const value_t>{values_}.subspan(b, e - b);
}

std::size_t SymCsrMatrix::index_bytes() const {
  return rowptr_.size() * sizeof(offset_t) + colind_.size() * sizeof(index_t);
}

std::size_t SymCsrMatrix::value_bytes() const {
  return (values_.size() + diag_.size()) * sizeof(value_t);
}

}  // namespace sparta
