#include "kernels/spmv_sym.hpp"

#include <algorithm>

#include "common/types.hpp"

namespace sparta::kernels {

void sym_rows_any(const SymView& a, const SymSchedule& sched, value_t* SPARTA_RESTRICT scratch,
                  std::size_t part, ConstDenseBlockView x, DenseBlockView y, value_t alpha,
                  value_t beta) {
  switch (x.width) {
    case 8:
      sym_rows_block<8>(a, sched, scratch, part, x, y, alpha, beta);
      break;
    case 4:
      sym_rows_block<4>(a, sched, scratch, part, x, y, alpha, beta);
      break;
    case 2:
      sym_rows_block<2>(a, sched, scratch, part, x, y, alpha, beta);
      break;
    default:
      sym_rows_block<1>(a, sched, scratch, part, x, y, alpha, beta);
      break;
  }
}

void sym_halo_add(const SymSchedule& sched, const value_t* SPARTA_RESTRICT scratch,
                  std::size_t part, DenseBlockView y) {
  const RowRange r = sched.parts[part];
  const auto k = static_cast<std::size_t>(y.width);
  const std::size_t nparts = sched.parts.size();
  for (std::size_t q = part + 1; q < nparts; ++q) {
    const index_t bq = sched.base[q];
    const index_t end = std::min(sched.parts[q].begin, r.end);
    for (index_t i = std::max(bq, r.begin); i < end; ++i) {
      const value_t* SPARTA_RESTRICT hq =
          scratch + (sched.offset[q] + static_cast<std::size_t>(i - bq)) * k;
      value_t* SPARTA_RESTRICT yi = y.row(i);
#pragma omp simd
      for (index_t c = 0; c < y.width; ++c) yi[c] += hq[c];
    }
  }
}

SymSchedule plan_sym_schedule(const SymView& a, std::span<const RowRange> parts) {
  SymSchedule sched;
  sched.parts.assign(parts.begin(), parts.end());
  sched.base.resize(parts.size());
  sched.offset.resize(parts.size());
  std::size_t total = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    // Columns are sorted within a row, so the first colind of each non-empty
    // row is its minimum referenced column.
    index_t base = parts[p].begin;
    for (index_t i = parts[p].begin; i < parts[p].end; ++i) {
      const auto b = a.rowptr[static_cast<std::size_t>(i)];
      if (b < a.rowptr[static_cast<std::size_t>(i) + 1]) {
        const index_t first = a.colind[static_cast<std::size_t>(b)];
        if (first < base) base = first;
      }
    }
    sched.base[p] = base;
    sched.offset[p] = total;
    total += static_cast<std::size_t>(parts[p].begin - base);
  }
  sched.scratch_elems = total * static_cast<std::size_t>(kWidestChunk);
  return sched;
}

}  // namespace sparta::kernels
