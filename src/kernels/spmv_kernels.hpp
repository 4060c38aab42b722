// Host SpMV/SpMM kernel templates.
//
// One templated inner loop per storage format. The plain-CSR loop is
// parameterized on the three orthogonal code transformations of the
// optimization pool:
//   Vectorize — #pragma omp simd on the inner loop (MB/CMP classes)
//   Unroll    — 4-way manual unrolling (CMP class)
//   Prefetch  — software prefetch of x[colind[j + dist]], across row
//               boundaries, into L2 (ML class)
// The registry (kernel_registry.hpp) instantiates the eight combinations and
// dispatches a KernelConfig to the right one. The delta-compressed loop has
// one form: its column decode is a serial dependence, so a vectorized delta
// config runs the same code (KernelConfig::vectorized still feeds the
// simulator's cost model). The paper's two bound micro-benchmarks (§III-B)
// run the same tables: P_ML the plain-CSR loop over a colind whose row-i
// entries hold i, P_CMP its own unit-stride row body. These kernels are
// the *real* implementations: they run multithreaded on the host and every
// one of them is validated against spmv_reference in the test suite. The
// modeled platforms use their cost descriptors instead (sim/kernel_model).
//
// Every kernel computes Y = alpha * A * X + beta * Y over dense operand
// blocks (block_view.hpp): X is ncols x k, Y is nrows x k. The matrix stream
// (rowptr/colind/values) is read ONCE per k operand columns — the SpMM
// amortization of Saule/Kaya/Catalyurek (arXiv:1302.1078) — with the column
// count register-blocked at compile time for k in {1, 2, 4, 8}; the registry
// splits every width greedily into those chunks. The k = 1
// instantiation runs the scalar row bodies (`detail::csr_row` /
// `detail::delta_row`) once per row, and alpha = 1, beta = 0 takes a branch
// to the direct store, so a contiguous width-1 product is bit-identical to
// a per-row loop over those bodies.
//
// Every kernel here computes a single RowRange with no OpenMP pragmas
// beyond simd: the registry's phases (PreparedSpmv::run_team) decide which
// thread runs which rows. The `*_dot` variants additionally fuse the
// dependent reduction w·y into the same row pass (single-vector by nature).
#pragma once

#include <array>
#include <span>

#include "kernels/block_view.hpp"
#include "sparse/csr.hpp"
#include "sparse/delta_csr.hpp"
#include "sparse/partition.hpp"

namespace sparta::kernels {

/// Software prefetch distance in positions of the colind stream, measured:
/// on perfbench's power-law matrix at k = 8, one-shot products shorten up
/// to 48-64 and stay flat to 256 (0.78x the old within-row distance-8
/// rule's time at 64). At k = 1, where the prefetch does not pay on these
/// matrices, 64 cost least of 48-128 on a circuit matrix and a stencil
/// (DESIGN.md §14).
inline constexpr offset_t kPrefetchDistance = 64;

/// Temporal-locality hint passed to every __builtin_prefetch of the
/// operand. Locality 1 emits prefetcht2 on x86, which fills L2 and the LLC
/// but not L1: a gathered operand row is used once per pass, so it is
/// fetched close to the core without evicting L1's working set.
inline constexpr int kPrefetchLocality = 1;

/// Non-owning view of the three CSR streams. The engine/registry paths read
/// matrices through views so that NUMA first-touch copies of the arrays can
/// be substituted without duplicating kernel code.
struct CsrView {
  std::span<const offset_t> rowptr;
  std::span<const index_t> colind;
  std::span<const value_t> values;
  index_t nrows = 0;
};

inline CsrView make_view(const CsrMatrix& a) {
  return {a.rowptr(), a.colind(), a.values(), a.nrows()};
}

/// Non-owning view of a delta plan's streams: rowptr and values are the
/// plan's CSR view's, first_col and the delta stream the format's.
struct DeltaView {
  std::span<const offset_t> rowptr;
  std::span<const index_t> first_col;
  std::span<const std::uint8_t> deltas8;
  std::span<const std::uint16_t> deltas16;
  std::span<const value_t> values;
  DeltaWidth width = DeltaWidth::k8;
};

inline DeltaView make_view(const CsrView& rows, const DeltaCsrMatrix& d) {
  return {rows.rowptr, d.first_col(), d.deltas8(), d.deltas16(), rows.values, d.width()};
}

namespace detail {

/// Prefetch the operand row (x row colind[q], `ldx` apart) of colind
/// position q if q lies inside the view: the one guard of the cross-row
/// rule. The row bodies call it at position j with q = j +
/// kPrefetchDistance, which may sit in a later row, so each position of a
/// pass's share of the stream is prefetched once.
inline void prefetch_operand(const index_t* SPARTA_RESTRICT colind,
                             const value_t* SPARTA_RESTRICT x, std::size_t ldx, offset_t q,
                             offset_t stream_end) {
  if (q < stream_end) {
    __builtin_prefetch(&x[static_cast<std::size_t>(colind[static_cast<std::size_t>(q)]) * ldx], 0,
                       kPrefetchLocality);
  }
}

/// Row loop body for plain CSR over colind positions [begin, end).
/// `stream_end` is the view's nonzero count, the bound of the prefetch.
/// Raw SPARTA_RESTRICT pointers: the matrix streams and x are always
/// distinct arrays, and promising that lets the vectorizer skip runtime
/// overlap checks on the gather.
template <bool Vectorize, bool Unroll, bool Prefetch>
inline value_t csr_row(const index_t* SPARTA_RESTRICT colind,
                       const value_t* SPARTA_RESTRICT values,
                       const value_t* SPARTA_RESTRICT x, offset_t begin, offset_t end,
                       offset_t stream_end) {
  value_t acc = 0.0;
  offset_t j = begin;
  if constexpr (Unroll) {
    value_t a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (; j + 4 <= end; j += 4) {
      if constexpr (Prefetch) {
        for (offset_t u = 0; u < 4; ++u) {
          prefetch_operand(colind, x, 1, j + kPrefetchDistance + u, stream_end);
        }
      }
      const auto k = static_cast<std::size_t>(j);
      a0 += values[k] * x[static_cast<std::size_t>(colind[k])];
      a1 += values[k + 1] * x[static_cast<std::size_t>(colind[k + 1])];
      a2 += values[k + 2] * x[static_cast<std::size_t>(colind[k + 2])];
      a3 += values[k + 3] * x[static_cast<std::size_t>(colind[k + 3])];
    }
    acc = (a0 + a1) + (a2 + a3);
    for (; j < end; ++j) {
      if constexpr (Prefetch) prefetch_operand(colind, x, 1, j + kPrefetchDistance, stream_end);
      const auto k = static_cast<std::size_t>(j);
      acc += values[k] * x[static_cast<std::size_t>(colind[k])];
    }
  } else if constexpr (Vectorize) {
    // A simd lane cannot issue a prefetch: the row's positions, shifted by
    // the distance, are prefetched before the row is summed.
    if constexpr (Prefetch) {
      for (offset_t q = begin; q < end; ++q) {
        prefetch_operand(colind, x, 1, q + kPrefetchDistance, stream_end);
      }
    }
#pragma omp simd reduction(+ : acc)
    for (offset_t jj = begin; jj < end; ++jj) {
      const auto k = static_cast<std::size_t>(jj);
      acc += values[k] * x[static_cast<std::size_t>(colind[k])];
    }
  } else {
    for (; j < end; ++j) {
      if constexpr (Prefetch) prefetch_operand(colind, x, 1, j + kPrefetchDistance, stream_end);
      const auto k = static_cast<std::size_t>(j);
      acc += values[k] * x[static_cast<std::size_t>(colind[k])];
    }
  }
  return acc;
}

/// Row loop body for delta-compressed CSR; Width is std::uint8_t or
/// std::uint16_t. Prefetching is not combined with delta (the next column is
/// only known after decode), mirroring the paper's pool where MB and ML
/// optimizations target different matrices. The first element carries the
/// absolute column and is peeled so the decode loop is branch-free.
template <class Width>
inline value_t delta_row(index_t first_col, const Width* SPARTA_RESTRICT deltas,
                         const value_t* SPARTA_RESTRICT values,
                         const value_t* SPARTA_RESTRICT x, offset_t begin, offset_t end) {
  if (begin == end) return 0.0;
  index_t col = first_col;
  value_t acc = values[static_cast<std::size_t>(begin)] * x[static_cast<std::size_t>(col)];
  for (offset_t j = begin + 1; j < end; ++j) {
    const auto k = static_cast<std::size_t>(j);
    col += static_cast<index_t>(deltas[k]);
    acc += values[k] * x[static_cast<std::size_t>(col)];
  }
  return acc;
}

/// K-column row body for plain CSR: one pass over the row's nonzeros feeds
/// all K accumulators, so each matrix entry (value + column index) is loaded
/// once per K multiply-adds. The K operand values x[col*ldx + c] are
/// contiguous across c — the register-blocked SIMD axis — so the column loop
/// is always vectorized; the scalar-path Vectorize/Unroll toggles only
/// distinguish k = 1 code (see csr_rows_block). Each nonzero gathers a
/// K-wide operand row, which is where the prefetch pays (`stream_end` as
/// in csr_row). Without the prefetch the sums run in a local array: summed
/// through `acc`, GCC 12 compiles that loop into one over pairs of nonzeros
/// with the sums in memory, about 1.4x slower at K = 8. The prefetching
/// body already compiles to one multiply-add per nonzero with `acc` in a
/// register.
template <index_t K, bool Prefetch>
inline void csr_row_block(const index_t* SPARTA_RESTRICT colind,
                          const value_t* SPARTA_RESTRICT values,
                          const value_t* SPARTA_RESTRICT x, index_t ldx, offset_t begin,
                          offset_t end, offset_t stream_end, value_t* SPARTA_RESTRICT acc) {
  if constexpr (!Prefetch) {
    std::array<value_t, static_cast<std::size_t>(K)> sum{};
    for (offset_t j = begin; j < end; ++j) {
      const auto k = static_cast<std::size_t>(j);
      const value_t v = values[k];
      const value_t* SPARTA_RESTRICT xr =
          &x[static_cast<std::size_t>(colind[k]) * static_cast<std::size_t>(ldx)];
#pragma omp simd
      for (index_t c = 0; c < K; ++c) sum[c] += v * xr[c];
    }
    for (index_t c = 0; c < K; ++c) acc[c] = sum[c];
    return;
  }
  for (index_t c = 0; c < K; ++c) acc[c] = 0.0;
  for (offset_t j = begin; j < end; ++j) {
    const auto k = static_cast<std::size_t>(j);
    prefetch_operand(colind, x, static_cast<std::size_t>(ldx), j + kPrefetchDistance,
                     stream_end);
    const value_t v = values[k];
    const value_t* SPARTA_RESTRICT xr =
        &x[static_cast<std::size_t>(colind[k]) * static_cast<std::size_t>(ldx)];
#pragma omp simd
    for (index_t c = 0; c < K; ++c) acc[c] += v * xr[c];
  }
}

/// K-column row body for delta-compressed CSR (see delta_row for the decode
/// shape; see csr_row_block for the blocking rationale and the local sums).
/// The decode advances the operand row pointer by each delta: GCC 12 turns
/// a loop that recomputes the row from the decoded column into the same
/// slow loop over pairs of nonzeros.
template <index_t K, class Width>
inline void delta_row_block(index_t first_col, const Width* SPARTA_RESTRICT deltas,
                            const value_t* SPARTA_RESTRICT values,
                            const value_t* SPARTA_RESTRICT x, index_t ldx, offset_t begin,
                            offset_t end, value_t* SPARTA_RESTRICT acc) {
  std::array<value_t, static_cast<std::size_t>(K)> sum{};
  const auto stride = static_cast<std::size_t>(ldx);
  const value_t* SPARTA_RESTRICT xr = &x[static_cast<std::size_t>(first_col) * stride];
  for (offset_t j = begin; j < end; ++j) {
    const auto k = static_cast<std::size_t>(j);
    if (j > begin) xr += static_cast<std::size_t>(deltas[k]) * stride;
    const value_t v = values[k];
#pragma omp simd
    for (index_t c = 0; c < K; ++c) sum[c] += v * xr[c];
  }
  for (index_t c = 0; c < K; ++c) acc[c] = sum[c];
}

/// alpha/beta store of one K-wide accumulator row. The alpha = 1, beta = 0
/// default takes the direct-store branch: computing alpha*acc + beta*y
/// instead would flip -0.0 to +0.0 and manufacture NaNs from infinities in
/// the overwritten y, breaking bit-identity with the historical y = A*x.
template <index_t K>
inline void store_row_block(value_t* SPARTA_RESTRICT y,
                            const value_t* SPARTA_RESTRICT acc, value_t alpha,
                            value_t beta, bool plain) {
  if (plain) {
#pragma omp simd
    for (index_t c = 0; c < K; ++c) y[c] = acc[c];
  } else {
#pragma omp simd
    for (index_t c = 0; c < K; ++c) y[c] = alpha * acc[c] + beta * y[c];
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Region-reentrant row-range kernels (no pragmas; call from inside a
// persistent parallel region, one RowRange per call).
// ---------------------------------------------------------------------------

/// Rows [r.begin, r.end) of Y = alpha A X + beta Y for a compile-time column
/// count K (X and Y must be K wide). K = 1 with a contiguous operand
/// delegates per row to the identical `detail::csr_row` instantiation the
/// single-vector path always compiled to, keeping the width-1 block path
/// bit-identical to it; a strided width-1 sub-view (odd chunk of a wider
/// operand) runs the generic block body instead. The alpha = 1, beta = 0
/// width-1 loop stores each row sum directly, with no per-row alpha/beta
/// test, so the plain product is the bare per-row loop.
template <index_t K, bool Vectorize, bool Unroll, bool Prefetch>
inline void csr_rows_block(const CsrView& a, ConstDenseBlockView x, DenseBlockView y,
                           value_t alpha, value_t beta, RowRange r) {
  const bool plain = alpha == 1.0 && beta == 0.0;
  const auto nnz = static_cast<offset_t>(a.colind.size());
  if constexpr (K == 1) {
    if (x.stride == 1) {
      const index_t* const colind = a.colind.data();
      const value_t* const values = a.values.data();
      if (plain) {
        for (index_t i = r.begin; i < r.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          *y.row(i) = detail::csr_row<Vectorize, Unroll, Prefetch>(
              colind, values, x.data, a.rowptr[k], a.rowptr[k + 1], nnz);
        }
        return;
      }
      for (index_t i = r.begin; i < r.end; ++i) {
        const auto k = static_cast<std::size_t>(i);
        const value_t acc = detail::csr_row<Vectorize, Unroll, Prefetch>(
            colind, values, x.data, a.rowptr[k], a.rowptr[k + 1], nnz);
        value_t& yi = *y.row(i);
        yi = alpha * acc + beta * yi;
      }
      return;
    }
  }
  for (index_t i = r.begin; i < r.end; ++i) {
    const auto k = static_cast<std::size_t>(i);
    std::array<value_t, static_cast<std::size_t>(K)> acc;
    detail::csr_row_block<K, Prefetch>(a.colind.data(), a.values.data(), x.data, x.stride,
                                       a.rowptr[k], a.rowptr[k + 1], nnz, acc.data());
    detail::store_row_block<K>(y.row(i), acc.data(), alpha, beta, plain);
  }
}

/// Rows [r.begin, r.end) of the P_CMP bound (paper §III-B) for a
/// compile-time column count K: A's rows with every entry multiplying
/// operand row i, so X (nrows rows) is read at unit stride and colind never.
template <index_t K>
inline void unit_stride_rows_block(const CsrView& a, ConstDenseBlockView x, DenseBlockView y,
                                   value_t alpha, value_t beta, RowRange r) {
  const bool plain = alpha == 1.0 && beta == 0.0;
  const value_t* SPARTA_RESTRICT const values = a.values.data();
  if constexpr (K == 1) {
    if (plain && x.stride == 1) {
      for (index_t i = r.begin; i < r.end; ++i) {
        const auto k = static_cast<std::size_t>(i);
        const value_t xi = x.data[k];
        const offset_t end = a.rowptr[k + 1];
        value_t acc = 0.0;
        for (offset_t j = a.rowptr[k]; j < end; ++j) {
          acc += values[static_cast<std::size_t>(j)] * xi;
        }
        *y.row(i) = acc;
      }
      return;
    }
  }
  for (index_t i = r.begin; i < r.end; ++i) {
    const auto k = static_cast<std::size_t>(i);
    std::array<value_t, static_cast<std::size_t>(K)> acc{};
    const value_t* SPARTA_RESTRICT const xr = x.row(i);
    const offset_t end = a.rowptr[k + 1];
    for (offset_t j = a.rowptr[k]; j < end; ++j) {
      const value_t v = values[static_cast<std::size_t>(j)];
#pragma omp simd
      for (index_t c = 0; c < K; ++c) acc[c] += v * xr[c];
    }
    detail::store_row_block<K>(y.row(i), acc.data(), alpha, beta, plain);
  }
}

/// Delta-compressed rows [r.begin, r.end) of Y = alpha A X + beta Y for a
/// compile-time column count K (see csr_rows_block for the K = 1 rule).
template <index_t K>
inline void delta_rows_block(const DeltaView& a, ConstDenseBlockView x, DenseBlockView y,
                             value_t alpha, value_t beta, RowRange r) {
  const bool plain = alpha == 1.0 && beta == 0.0;
  const bool narrow = a.width == DeltaWidth::k8;
  const value_t* const vals = a.values.data();
  if constexpr (K == 1) {
    if (x.stride == 1) {
      for (index_t i = r.begin; i < r.end; ++i) {
        const auto k = static_cast<std::size_t>(i);
        const auto b = a.rowptr[k];
        const auto e = a.rowptr[k + 1];
        const index_t fc = a.first_col[k];
        const value_t acc =
            narrow ? detail::delta_row<std::uint8_t>(fc, a.deltas8.data(), vals, x.data, b, e)
                   : detail::delta_row<std::uint16_t>(fc, a.deltas16.data(), vals, x.data, b,
                                                      e);
        value_t& yi = *y.row(i);
        yi = plain ? acc : alpha * acc + beta * yi;
      }
      return;
    }
  }
  for (index_t i = r.begin; i < r.end; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const auto b = a.rowptr[k];
    const auto e = a.rowptr[k + 1];
    const index_t fc = a.first_col[k];
    std::array<value_t, static_cast<std::size_t>(K)> acc;
    if (narrow) {
      detail::delta_row_block<K, std::uint8_t>(fc, a.deltas8.data(), vals, x.data, x.stride, b,
                                               e, acc.data());
    } else {
      detail::delta_row_block<K, std::uint16_t>(fc, a.deltas16.data(), vals, x.data, x.stride,
                                                b, e, acc.data());
    }
    detail::store_row_block<K>(y.row(i), acc.data(), alpha, beta, plain);
  }
}

/// Rows of y = alpha A x + beta y fused with the dependent partial
/// reduction: returns sum over i in [r.begin, r.end) of w[i] * y[i] (the
/// updated y). Each row result feeds the reduction in the same pass, so y is
/// written and consumed while hot. Single-vector by nature — the solver
/// recurrences it fuses are defined on one iterate.
template <bool Vectorize, bool Unroll, bool Prefetch>
inline double csr_rows_local_dot(const CsrView& a, std::span<const value_t> x,
                                 std::span<value_t> y, std::span<const value_t> w, RowRange r,
                                 value_t alpha = 1.0, value_t beta = 0.0) {
  const bool plain = alpha == 1.0 && beta == 0.0;
  const auto nnz = static_cast<offset_t>(a.colind.size());
  double acc = 0.0;
  for (index_t i = r.begin; i < r.end; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const value_t ai = detail::csr_row<Vectorize, Unroll, Prefetch>(
        a.colind.data(), a.values.data(), x.data(), a.rowptr[k], a.rowptr[k + 1], nnz);
    const value_t yi = plain ? ai : alpha * ai + beta * y[k];
    y[k] = yi;
    acc += w[k] * yi;
  }
  return acc;
}

/// Delta-compressed rows fused with the partial reduction w·y (see
/// csr_rows_local_dot).
inline double delta_rows_local_dot(const DeltaView& a, std::span<const value_t> x,
                                   std::span<value_t> y, std::span<const value_t> w, RowRange r,
                                   value_t alpha = 1.0, value_t beta = 0.0) {
  const bool plain = alpha == 1.0 && beta == 0.0;
  const value_t* const vals = a.values.data();
  double acc = 0.0;
  for (index_t i = r.begin; i < r.end; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const auto b = a.rowptr[k];
    const auto e = a.rowptr[k + 1];
    const index_t fc = a.first_col[k];
    const value_t ai =
        a.width == DeltaWidth::k8
            ? detail::delta_row<std::uint8_t>(fc, a.deltas8.data(), vals, x.data(), b, e)
            : detail::delta_row<std::uint16_t>(fc, a.deltas16.data(), vals, x.data(), b, e);
    const value_t yi = plain ? ai : alpha * ai + beta * y[k];
    y[k] = yi;
    acc += w[k] * yi;
  }
  return acc;
}

}  // namespace sparta::kernels
