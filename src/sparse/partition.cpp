#include "sparse/partition.hpp"

#include <algorithm>
#include <ranges>
#include <stdexcept>

#include "check/contract.hpp"
#include "check/validate.hpp"
#include "sparse/build.hpp"

namespace sparta {

namespace {

/// Below this the boundary searches are cheaper than a parallel region.
constexpr int kParallelMinParts = 32;

}  // namespace

std::vector<RowRange> partition_balanced_nnz(const CsrMatrix& m, int nparts, int threads) {
  return partition_balanced_nnz(m, {}, nparts, threads);
}

std::vector<RowRange> partition_balanced_nnz(const CsrMatrix& m,
                                             std::span<const index_t> empty_rows, int nparts,
                                             int threads) {
  if (nparts <= 0) throw std::invalid_argument{"partition_balanced_nnz: nparts <= 0"};
  const index_t nrows = m.nrows();
  const auto rowptr = m.rowptr();
  // skipped[k]: nonzeros of the first k empty rows. end_of(i) is the rowptr
  // of the emptied copy: the nonzeros the partition counts in rows [0, i).
  std::vector<offset_t> skipped(empty_rows.size() + 1, 0);
  for (std::size_t k = 0; k < empty_rows.size(); ++k) {
    skipped[k + 1] = skipped[k] + m.row_nnz(empty_rows[k]);
  }
  const auto end_of = [&](index_t i) {
    const auto k = std::lower_bound(empty_rows.begin(), empty_rows.end(), i) - empty_rows.begin();
    return rowptr[static_cast<std::size_t>(i)] - skipped[static_cast<std::size_t>(k)];
  };
  // The first i in [lo, nrows + 1) whose end_of(i) reaches `target`, or
  // nrows + 1 when none does: a lower_bound over the emptied rowptr.
  const auto first_reaching = [&](index_t lo, offset_t target) {
    const auto rows = std::views::iota(lo, nrows + 1);
    const auto it =
        std::ranges::partition_point(rows, [&](index_t i) { return end_of(i) < target; });
    return lo + static_cast<index_t>(it - rows.begin());
  };
  const offset_t total = end_of(nrows);
  std::vector<RowRange> parts(static_cast<std::size_t>(nparts));
  // Target cumulative nnz at the end of partition p; the first row index
  // whose cumulative nnz reaches it ends the partition. The search can land
  // on nrows + 1 when the target equals the total and trailing rows are
  // empty — clamp into [row, nrows].
  if (nparts >= kParallelMinParts) {
    // Boundary searches are independent when taken over the whole rowptr;
    // the serial fix-up below reproduces the sequential search's lower
    // start bound (row + 1) exactly: a global search that lands at or
    // before `row` (runs of empty rows) would have resolved to row + 1.
    const int nthreads = build::resolve_threads(threads);
    std::vector<index_t> ends(static_cast<std::size_t>(nparts));
#pragma omp parallel for default(none) shared(ends, first_reaching, total, nparts) \
    num_threads(nthreads) schedule(static)
    for (int p = 0; p < nparts; ++p) {
      const auto target = static_cast<offset_t>(
          (static_cast<long double>(total) * (p + 1)) / nparts);
      ends[static_cast<std::size_t>(p)] = first_reaching(1, target);
    }
    index_t row = 0;
    for (int p = 0; p < nparts; ++p) {
      auto end = ends[static_cast<std::size_t>(p)] <= row
                     ? row + 1
                     : ends[static_cast<std::size_t>(p)];
      if (p == nparts - 1) end = nrows;
      end = std::clamp(end, row, nrows);
      parts[static_cast<std::size_t>(p)] = {row, end};
      row = end;
    }
  } else {
    index_t row = 0;
    for (int p = 0; p < nparts; ++p) {
      const auto target = static_cast<offset_t>(
          (static_cast<long double>(total) * (p + 1)) / nparts);
      auto end = first_reaching(row + 1, target);
      if (p == nparts - 1) end = nrows;
      end = std::clamp(end, row, nrows);
      parts[static_cast<std::size_t>(p)] = {row, end};
      row = end;
    }
  }
  parts.back().end = nrows;
  SPARTA_CHECK_STRUCTURE(std::span<const RowRange>{parts}, nrows);
  return parts;
}

index_t long_row_threshold(const CsrMatrix& m) {
  const double avg =
      m.nrows() > 0 ? static_cast<double>(m.nnz()) / static_cast<double>(m.nrows()) : 0.0;
  return std::max(kMinLongRow, static_cast<index_t>(8.0 * avg));
}

std::vector<index_t> long_rows(const CsrMatrix& m) {
  const index_t threshold = long_row_threshold(m);
  std::vector<index_t> rows;
  for (index_t i = 0; i < m.nrows(); ++i) {
    if (m.row_nnz(i) > threshold) rows.push_back(i);
  }
  return rows;
}

std::vector<RowRange> partition_equal_rows(index_t nrows, int nparts, int threads) {
  if (nparts <= 0) throw std::invalid_argument{"partition_equal_rows: nparts <= 0"};
  std::vector<RowRange> parts(static_cast<std::size_t>(nparts));
  const index_t base = nrows / nparts;
  const index_t extra = nrows % nparts;
  // Closed form: partition p starts at p*base + min(p, extra), so every
  // range is independent of the others.
  if (nparts >= kParallelMinParts) {
    const int nthreads = build::resolve_threads(threads);
#pragma omp parallel for default(none) shared(parts, nparts, base, extra) \
    num_threads(nthreads) schedule(static)
    for (int p = 0; p < nparts; ++p) {
      const index_t begin = p * base + std::min<index_t>(p, extra);
      const index_t len = base + (p < extra ? 1 : 0);
      parts[static_cast<std::size_t>(p)] = {begin, begin + len};
    }
  } else {
    index_t row = 0;
    for (int p = 0; p < nparts; ++p) {
      const index_t len = base + (p < extra ? 1 : 0);
      parts[static_cast<std::size_t>(p)] = {row, row + len};
      row += len;
    }
  }
  SPARTA_CHECK_STRUCTURE(std::span<const RowRange>{parts}, nrows);
  return parts;
}

offset_t range_nnz(const CsrMatrix& m, RowRange r) {
  return m.rowptr()[static_cast<std::size_t>(r.end)] -
         m.rowptr()[static_cast<std::size_t>(r.begin)];
}

}  // namespace sparta
