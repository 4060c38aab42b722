#include "kernels/spmv_sym.hpp"

#include <stdexcept>

#include "common/types.hpp"

namespace sparta::kernels {

void sym_scatter_any(const SymView& a, const SymSchedule& sched,
                     value_t* SPARTA_RESTRICT scratch, std::size_t part,
                     ConstDenseBlockView x) {
  switch (x.width) {
    case 8:
      sym_scatter_block<8>(a, sched, scratch, part, x);
      break;
    case 4:
      sym_scatter_block<4>(a, sched, scratch, part, x);
      break;
    case 2:
      sym_scatter_block<2>(a, sched, scratch, part, x);
      break;
    default:
      sym_scatter_block<1>(a, sched, scratch, part, x);
      break;
  }
}

void sym_reduce_any(const SymSchedule& sched, const value_t* SPARTA_RESTRICT scratch,
                    std::size_t part, DenseBlockView y, value_t alpha, value_t beta) {
  switch (y.width) {
    case 8:
      sym_reduce_block<8>(sched, scratch, part, y, alpha, beta);
      break;
    case 4:
      sym_reduce_block<4>(sched, scratch, part, y, alpha, beta);
      break;
    case 2:
      sym_reduce_block<2>(sched, scratch, part, y, alpha, beta);
      break;
    default:
      sym_reduce_block<1>(sched, scratch, part, y, alpha, beta);
      break;
  }
}

SymSchedule plan_sym_schedule(const SymView& a, std::span<const RowRange> parts,
                              index_t cap) {
  if (cap < 1) throw std::invalid_argument{"plan_sym_schedule: cap must be >= 1"};
  SymSchedule sched;
  sched.parts.assign(parts.begin(), parts.end());
  sched.cap = cap;
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
    total += static_cast<std::size_t>(parts[p].end - base) * static_cast<std::size_t>(cap);
  }
  sched.scratch_elems = total;
  return sched;
}

double sym_reduce_dot(const SymSchedule& sched, const value_t* SPARTA_RESTRICT scratch,
                      std::size_t part, std::span<value_t> y, std::span<const value_t> w,
                      value_t alpha, value_t beta) {
  const RowRange r = sched.parts[part];
  const auto nparts = sched.parts.size();
  const auto cap = static_cast<std::size_t>(sched.cap);
  const bool plain = alpha == 1.0 && beta == 0.0;
  double acc = 0.0;
  for (index_t i = r.begin; i < r.end; ++i) {
    value_t tot = 0.0;
    for (std::size_t q = part; q < nparts; ++q) {
      const index_t bq = sched.base[q];
      if (bq > i) continue;
      tot += scratch[sched.offset[q] + static_cast<std::size_t>(i - bq) * cap];
    }
    const auto k = static_cast<std::size_t>(i);
    const value_t yi = plain ? tot : alpha * tot + beta * y[k];
    y[k] = yi;
    acc += w[k] * yi;
  }
  return acc;
}

}  // namespace sparta::kernels
