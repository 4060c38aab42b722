// Symmetric-storage SpMV/SpMM kernels with conflict-free parallel writes.
//
// Symmetric storage (sparse/sym_csr.hpp) keeps only the strict lower
// triangle + diagonal, so one stored nonzero a(i, j), j < i, contributes
//   y[i] += v * x[j]   (the direct product of row i)
//   y[j] += v * x[i]   (the mirrored product of column j)
// The mirrored write targets a row another thread may own — the classic
// symmetric-SpMV write conflict. The paper's bandwidth analysis forbids
// paying for it with atomics on the hot path, so these kernels split a
// product into two phases keyed off the row partition instead:
//
//  Phase 1 (rows)  Partition p walks its rows [begin_p, end_p) in ascending
//     order and stores each row's direct sum straight into Y. Mirrors only
//     go downward (j < i): a mirror into one of p's own rows lands in Y,
//     whose row j the ascending loop has already stored; a mirror below
//     begin_p lands in p's private halo window, scratch rows
//     [base_p, begin_p), where base_p is the smallest column index p's rows
//     reference (columns are sorted, so that is the first colind of each
//     row). Nothing else is written.
//  Phase 2 (halo)  After a barrier, the owner of row i adds the halo windows
//     of the later partitions q > p that cover it (base_q <= i), in fixed
//     ascending order. Windows of q < p cannot reach row i: their rows end
//     at or before p begins, and mirrors only go downward.
//
// No atomics anywhere, and the fixed order makes the result deterministic
// for a given partition. Row i sums its diagonal and direct products, then
// its own partition's mirrors in row order, then each later partition's
// halo total in partition order. Y = alpha A X + beta Y scales the direct
// sum by alpha as it is stored and the mirrors through the operand
// alpha * x[i], so the halo windows arrive scaled; with beta = 0 the direct
// store never reads Y.
//
// The halo windows are sized by plan_sym_schedule and allocated once at
// prepare time (kernel_registry) with room for kWidestChunk columns per row;
// phase 1 zeroes its own window, so the owning thread first-touches it. A
// K-column pass packs every window at K columns per row into the first
// (halo rows) * K elements, so one allocation serves every chunk width and
// a K-column pass touches only K / kWidestChunk of it. Like the other
// formats, these kernels have no pragmas beyond simd: the registry's
// symmetric plan (PreparedSpmv::run_team) places the barrier between the
// two phases.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "kernels/block_view.hpp"
#include "sparse/partition.hpp"
#include "sparse/sym_csr.hpp"

namespace sparta::kernels {

/// Non-owning view of the symmetric storage streams.
struct SymView {
  std::span<const offset_t> rowptr;
  std::span<const index_t> colind;
  std::span<const value_t> values;
  std::span<const value_t> diag;
  index_t nrows = 0;
};

inline SymView make_view(const SymCsrMatrix& a) {
  return {a.rowptr(), a.colind(), a.values(), a.diag(), a.nrows()};
}

/// Halo schedule for one row partition: per-partition halo window bases and
/// row offsets. Built once per prepared kernel; identical for every
/// thread count (it depends only on the partition and the matrix structure).
struct SymSchedule {
  std::vector<RowRange> parts;
  /// First row of partition p's halo window: min(parts[p].begin, smallest
  /// column referenced by p's rows). Halo rows are [base[p], parts[p].begin).
  std::vector<index_t> base;
  /// Halo rows of the partitions before p; in a K-column pass, halo row i
  /// of partition p lives at element (offset[p] + i - base[p]) * K.
  std::vector<std::size_t> offset;
  /// Total scratch elements: sum over p of
  /// (parts[p].begin - base[p]) * kWidestChunk.
  std::size_t scratch_elems = 0;
};

/// Build the halo schedule for `parts`, with scratch for passes of up to
/// kWidestChunk columns.
/// `parts` must be an ordered exact cover of [0, a.nrows).
SymSchedule plan_sym_schedule(const SymView& a, std::span<const RowRange> parts);

/// Phase 1: partition `part`'s rows of Y = alpha A X + beta Y, columns
/// [0, K): direct stores and own-row mirrors into Y, the other mirrors into
/// the partition's halo window. x and y must be K columns wide,
/// K <= kWidestChunk.
template <index_t K>
inline void sym_rows_block(const SymView& a, const SymSchedule& sched,
                           value_t* SPARTA_RESTRICT scratch, std::size_t part,
                           ConstDenseBlockView x, DenseBlockView y, value_t alpha, value_t beta) {
  const RowRange r = sched.parts[part];
  const index_t base = sched.base[part];
  const auto ldx = static_cast<std::size_t>(x.stride);
  const auto ldy = static_cast<std::size_t>(y.stride);
  constexpr auto ldh = static_cast<std::size_t>(K);
  value_t* SPARTA_RESTRICT halo = scratch + sched.offset[part] * ldh;
  for (index_t i = base; i < r.begin; ++i) {
    value_t* SPARTA_RESTRICT hi = halo + static_cast<std::size_t>(i - base) * ldh;
#pragma omp simd
    for (index_t c = 0; c < K; ++c) hi[c] = 0.0;
  }
  const offset_t* SPARTA_RESTRICT rowptr = a.rowptr.data();
  const index_t* SPARTA_RESTRICT colind = a.colind.data();
  const value_t* SPARTA_RESTRICT values = a.values.data();
  const value_t* SPARTA_RESTRICT diag = a.diag.data();
  for (index_t i = r.begin; i < r.end; ++i) {
    const value_t* SPARTA_RESTRICT xi = x.data + static_cast<std::size_t>(i) * ldx;
    const value_t d = diag[static_cast<std::size_t>(i)];
    std::array<value_t, static_cast<std::size_t>(K)> acc;
    std::array<value_t, static_cast<std::size_t>(K)> axi;
    // The sum starts from +0.0 like every halo window does, so a row whose
    // terms sum to -0.0 stores +0.0 wherever its terms came from.
#pragma omp simd
    for (index_t c = 0; c < K; ++c) {
      acc[static_cast<std::size_t>(c)] = 0.0 + d * xi[c];
      axi[static_cast<std::size_t>(c)] = alpha * xi[c];
    }
    const auto b = rowptr[static_cast<std::size_t>(i)];
    const auto e = rowptr[static_cast<std::size_t>(i) + 1];
    for (offset_t j = b; j < e; ++j) {
      const auto k = static_cast<std::size_t>(j);
      const index_t col = colind[k];
      const value_t v = values[k];
      const value_t* SPARTA_RESTRICT xj = x.data + static_cast<std::size_t>(col) * ldx;
      value_t* SPARTA_RESTRICT mj = col < r.begin
                                        ? halo + static_cast<std::size_t>(col - base) * ldh
                                        : y.data + static_cast<std::size_t>(col) * ldy;
#pragma omp simd
      for (index_t c = 0; c < K; ++c) {
        acc[static_cast<std::size_t>(c)] += v * xj[c];
        mj[c] += v * axi[static_cast<std::size_t>(c)];
      }
    }
    // Mirrors into row i come only from rows > i (not yet visited), so the
    // direct store cannot overwrite a prior contribution.
    value_t* SPARTA_RESTRICT yi = y.data + static_cast<std::size_t>(i) * ldy;
    if (beta == 0.0) {
#pragma omp simd
      for (index_t c = 0; c < K; ++c) yi[c] = alpha * acc[static_cast<std::size_t>(c)];
    } else {
#pragma omp simd
      for (index_t c = 0; c < K; ++c) {
        yi[c] = alpha * acc[static_cast<std::size_t>(c)] + beta * yi[c];
      }
    }
  }
}

/// Runtime-width dispatch to the specialized phase-1 instantiation
/// (x.width must be one of 1/2/4/8).
void sym_rows_any(const SymView& a, const SymSchedule& sched, value_t* SPARTA_RESTRICT scratch,
                  std::size_t part, ConstDenseBlockView x, DenseBlockView y, value_t alpha,
                  value_t beta);

/// Phase 2: add the later partitions' halo windows into partition `part`'s
/// rows of Y, columns [0, y.width), in ascending partition order. Must run
/// after a barrier that orders it against every partition's phase 1.
void sym_halo_add(const SymSchedule& sched, const value_t* SPARTA_RESTRICT scratch,
                  std::size_t part, DenseBlockView y);

}  // namespace sparta::kernels
