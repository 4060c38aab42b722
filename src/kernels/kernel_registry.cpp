#include "kernels/kernel_registry.hpp"

#include <omp.h>

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "check/contract.hpp"
#include "check/validate.hpp"
#include "common/numa.hpp"
#include "common/timer.hpp"
#include "kernels/spmv_kernels.hpp"
#include "kernels/spmv_sym.hpp"

namespace sparta::kernels {

namespace detail_registry {

/// The fixed phase list a plan walks per product (see PreparedSpmv).
enum class Phases { kRows, kDynamic, kSymmetric, kDecomposed };

/// Everything a prepared plan executes from.
struct Prepared {
  Phases phases = Phases::kRows;
  std::optional<DeltaCsrMatrix> delta;
  std::optional<DecomposedCsrMatrix> decomposed;  // set iff kDecomposed
  std::optional<SymCsrMatrix> sym;                // set iff kSymmetric
  std::vector<RowRange> parts;                    // the plan's one partition

  // Views the row kernels read through — the source arrays, or the
  // first-touch copies below when NUMA placement was requested.
  CsrView view;
  DeltaView delta_view;  // valid iff delta

  NumaArray<offset_t> ft_rowptr;
  NumaArray<index_t> ft_colind;
  NumaArray<index_t> row_colind;  // the P_ML bound's colind: row i's entries hold i
  NumaArray<value_t> ft_values;
  NumaArray<index_t> ft_first_col;
  NumaArray<std::uint8_t> ft_deltas8;
  NumaArray<std::uint16_t> ft_deltas16;

  // Symmetric storage: the halo schedule is keyed to `parts`. The halo
  // windows, like the long-row slices below, hold kWidestChunk columns per
  // row and are allocated at prepare time, so the hot path never allocates
  // and any width runs in the row kernels' 8/4/2/1 column groups.
  SymView sym_view;
  SymSchedule sym_sched;
  NumaArray<value_t> sym_scratch;

  // Long-row decomposition: row k * nparts + p of `slice_view` is part p's
  // even nnz slice of long row k, and its partial sums land in the same row
  // of `slices` (kWidestChunk columns per row). Part p owns long rows
  // [long_first[p], long_first[p + 1]).
  std::vector<offset_t> slice_rowptr;
  CsrView slice_view;
  NumaArray<value_t> slices;
  std::vector<std::size_t> long_first;

  /// One row-range block runner per specialized chunk width — slot i handles
  /// width 1 << i (1, 2, 4, 8). Every product decomposes its operand width
  /// into these chunks.
  using BlockRowsFn = void (*)(const Prepared&, RowRange, ConstDenseBlockView,
                               DenseBlockView, value_t, value_t);
  std::array<BlockRowsFn, 4> block_rows{};  // over view (or delta_view)
  std::array<BlockRowsFn, 4> slice_rows{};  // over slice_view

  /// Rows of y = alpha A x + beta y fused with the partial w·y.
  double (*local_dot)(const Prepared&, RowRange, std::span<const value_t>, std::span<value_t>,
                      std::span<const value_t>, value_t, value_t) = nullptr;
};

}  // namespace detail_registry

namespace {

using detail_registry::Phases;
using detail_registry::Prepared;

/// Rows per self-scheduled chunk of the dynamic plan.
constexpr index_t kDynamicChunkRows = 64;

/// Largest specialized chunk width (8/4/2/1) not exceeding `rem`.
index_t pow2_chunk(index_t rem) {
  return rem >= kWidestChunk ? kWidestChunk : rem >= 4 ? 4 : rem >= 2 ? 2 : 1;
}

/// Slot of the k-specialized table that handles chunk width w (1/2/4/8).
std::size_t chunk_slot(index_t w) {
  return w == 8 ? 3 : w == 4 ? 2 : w == 2 ? 1 : 0;
}

/// Rows `r` of Y = alpha A X + beta Y through a k-specialized impl table,
/// the operand width split greedily into 8/4/2/1-column chunks.
void run_rows_blocked(const Prepared& p, const std::array<Prepared::BlockRowsFn, 4>& table,
                      RowRange r, ConstDenseBlockView x, DenseBlockView y, value_t alpha,
                      value_t beta) {
  for (index_t c = 0; c < x.width;) {
    const index_t w = pow2_chunk(x.width - c);
    table[chunk_slot(w)](p, r, x.columns(c, w), y.columns(c, w), alpha, beta);
    c += w;
  }
}

/// Select the <V, U, P> instantiation at runtime. The runner signature is
/// whatever Fn::run has, so the same picker serves every table.
template <template <bool, bool, bool> class Fn>
auto pick(bool vec, bool unroll, bool prefetch) {
  using Runner = decltype(&Fn<false, false, false>::run);
  static constexpr Runner table[2][2][2] = {
      {{Fn<false, false, false>::run, Fn<false, false, true>::run},
       {Fn<false, true, false>::run, Fn<false, true, true>::run}},
      {{Fn<true, false, false>::run, Fn<true, false, true>::run},
       {Fn<true, true, false>::run, Fn<true, true, true>::run}},
  };
  return table[vec][unroll][prefetch];
}

/// K-specialized CSR row-range runner family over the view `View` of the
/// plan, nested so `pick` can select the scalar transformations.
template <index_t K, CsrView Prepared::*View>
struct CsrBlock {
  template <bool V, bool U, bool P>
  struct Fn {
    static void run(const Prepared& p, RowRange r, ConstDenseBlockView x, DenseBlockView y,
                    value_t alpha, value_t beta) {
      csr_rows_block<K, V, U, P>(p.*View, x, y, alpha, beta, r);
    }
  };
};

template <index_t K>
void delta_block_rows(const Prepared& p, RowRange r, ConstDenseBlockView x, DenseBlockView y,
                      value_t alpha, value_t beta) {
  delta_rows_block<K>(p.delta_view, x, y, alpha, beta, r);
}

template <bool V, bool U, bool P>
struct LocalCsrDot {
  static double run(const Prepared& p, RowRange r, std::span<const value_t> x,
                    std::span<value_t> y, std::span<const value_t> w, value_t alpha,
                    value_t beta) {
    return csr_rows_local_dot<V, U, P>(p.view, x, y, w, r, alpha, beta);
  }
};

double local_delta_dot(const Prepared& p, RowRange r, std::span<const value_t> x,
                       std::span<value_t> y, std::span<const value_t> w, value_t alpha,
                       value_t beta) {
  return delta_rows_local_dot(p.delta_view, x, y, w, r, alpha, beta);
}

/// Fill the k-specialized impl table for the plain-CSR kernels over `View`.
template <CsrView Prepared::*View>
std::array<Prepared::BlockRowsFn, 4> csr_block_table(bool vec, bool unroll, bool prefetch) {
  return {pick<CsrBlock<1, View>::template Fn>(vec, unroll, prefetch),
          pick<CsrBlock<2, View>::template Fn>(vec, unroll, prefetch),
          pick<CsrBlock<4, View>::template Fn>(vec, unroll, prefetch),
          pick<CsrBlock<8, View>::template Fn>(vec, unroll, prefetch)};
}

/// The k-specialized impl table of the delta-compressed kernels.
constexpr std::array<Prepared::BlockRowsFn, 4> kDeltaBlockTable{
    &delta_block_rows<1>, &delta_block_rows<2>, &delta_block_rows<4>, &delta_block_rows<8>};

template <index_t K>
void unit_stride_block_rows(const Prepared& p, RowRange r, ConstDenseBlockView x,
                            DenseBlockView y, value_t alpha, value_t beta) {
  unit_stride_rows_block<K>(p.view, x, y, alpha, beta, r);
}

/// The k-specialized impl table of the P_CMP bound.
constexpr std::array<Prepared::BlockRowsFn, 4> kUnitStrideBlockTable{
    &unit_stride_block_rows<1>, &unit_stride_block_rows<2>, &unit_stride_block_rows<4>,
    &unit_stride_block_rows<8>};

/// Rows `r` through the plan's width-1 row kernel, then their w·y: the fused
/// dot of a table that has no fused kernel of its own.
double local_block_dot(const Prepared& p, RowRange r, std::span<const value_t> x,
                       std::span<value_t> y, std::span<const value_t> w, value_t alpha,
                       value_t beta) {
  p.block_rows[0](p, r, ConstDenseBlockView::from_vector(x), DenseBlockView::from_vector(y),
                  alpha, beta);
  double acc = 0.0;
  for (index_t i = r.begin; i < r.end; ++i) {
    const auto k = static_cast<std::size_t>(i);
    acc += w[k] * y[k];
  }
  return acc;
}

/// Copy `src` ranges into untouched `dst` storage from the threads that own
/// the corresponding row ranges, placing pages NUMA-locally. `row_of` maps a
/// RowRange to the [first, last) element range of the array being copied.
template <class T, class RangeOf>
void first_touch_copy(std::span<const T> src, NumaArray<T>& dst,
                      std::span<const RowRange> parts, int threads, RangeOf range_of) {
  dst = NumaArray<T>(src.size());
#pragma omp parallel default(none) shared(src, dst, parts, range_of) num_threads(threads)
  {
    const int nt = omp_get_num_threads();
    const int nparts = static_cast<int>(parts.size());
    for (int pi = omp_get_thread_num(); pi < nparts; pi += nt) {
      const auto [first, last] = range_of(parts[static_cast<std::size_t>(pi)], pi == nparts - 1);
      std::copy(src.begin() + first, src.begin() + last, dst.data() + first);
    }
  }
}

struct ElemRange {
  std::ptrdiff_t first;
  std::ptrdiff_t last;
};

/// The P_ML bound's column array: every entry of row i holds i, written by
/// the thread that owns the row's part (one part per thread).
NumaArray<index_t> row_index_colind(std::span<const offset_t> rp, std::span<const RowRange> parts,
                                    int threads) {
  NumaArray<index_t> colind(static_cast<std::size_t>(rp.back()));
  index_t* const out = colind.data();
#pragma omp parallel for default(none) shared(rp, parts, out) num_threads(threads) \
    schedule(static, 1)
  for (const RowRange& r : parts) {
    for (auto i = static_cast<std::size_t>(r.begin); i < static_cast<std::size_t>(r.end); ++i) {
      std::fill(out + rp[i], out + rp[i + 1], static_cast<index_t>(i));
    }
  }
  return colind;
}

// ---------------------------------------------------------------------------
// The plans' phases. Each runs on one thread of a team of `nt` and walks the
// parts that thread owns (tid, tid + nt, ...); every thread of the team
// reaches the same barriers.
// ---------------------------------------------------------------------------

/// One product's operands; `w` is the fused-dot weight vector or empty.
struct Product {
  ConstDenseBlockView x;
  DenseBlockView y;
  value_t alpha;
  value_t beta;
  std::span<const value_t> w;
};

/// Rows `r` of the product through the plan's row kernels: the fused dot
/// kernel when a dot is requested, the blocked kernels otherwise. Returns
/// the partial w·y over `r` (0 without a dot).
double rows_pass(const Prepared& p, RowRange r, const Product& op) {
  if (op.w.empty()) {
    run_rows_blocked(p, p.block_rows, r, op.x, op.y, op.alpha, op.beta);
    return 0.0;
  }
  return p.local_dot(p, r, {op.x.data, static_cast<std::size_t>(op.x.rows)},
                     {op.y.data, static_cast<std::size_t>(op.y.rows)}, op.w, op.alpha,
                     op.beta);
}

/// w·y over the owned rows (0 without a dot).
double owned_dot(const Prepared& p, int tid, int nt, const Product& op) {
  double dot = 0.0;
  if (op.w.empty()) return dot;
  const value_t* const w = op.w.data();
  const value_t* const y = op.y.data;
  const std::size_t np = p.parts.size();
  for (auto pi = static_cast<std::size_t>(tid); pi < np; pi += static_cast<std::size_t>(nt)) {
    const RowRange r = p.parts[pi];
    for (index_t i = r.begin; i < r.end; ++i) {
      const auto k = static_cast<std::size_t>(i);
      dot += w[k] * y[k];
    }
  }
  return dot;
}

/// CSR and delta: one phase over the owned rows.
double run_rows(const Prepared& p, int tid, int nt, const Product& op) {
  double dot = 0.0;
  const std::size_t np = p.parts.size();
  for (auto pi = static_cast<std::size_t>(tid); pi < np; pi += static_cast<std::size_t>(nt)) {
    dot += rows_pass(p, p.parts[pi], op);
  }
  return dot;
}

/// Dynamic schedule: the rows self-scheduled in 64-row chunks; the loop's
/// implicit barrier makes every row final before the fused dot walks the
/// owned rows, so the partial sums stay deterministic.
double run_dynamic(const Prepared& p, int tid, int nt, const Product& op) {
  const index_t n = p.view.nrows;
  const index_t nchunks = (n + kDynamicChunkRows - 1) / kDynamicChunkRows;
#pragma omp for schedule(dynamic)
  for (index_t c = 0; c < nchunks; ++c) {
    const index_t begin = c * kDynamicChunkRows;
    run_rows_blocked(p, p.block_rows, RowRange{begin, std::min(n, begin + kDynamicChunkRows)},
                     op.x, op.y, op.alpha, op.beta);
  }
  return owned_dot(p, tid, nt, op);
}

/// Symmetric storage: per column group, the owned rows' direct stores and
/// mirrors, then — after a barrier — the later parts' halo adds into the
/// owned rows; the fused dot then walks the owned rows. A group after the
/// first starts with a barrier that orders the previous group's halo reads
/// against its halo writes.
double run_symmetric(Prepared& p, int tid, int nt, const Product& op) {
  const SymView& view = p.sym_view;
  const SymSchedule& sched = p.sym_sched;
  value_t* const scratch = p.sym_scratch.data();
  const std::size_t np = p.parts.size();
  const index_t width = op.x.width;
  for (index_t c = 0; c < width;) {
    const index_t g = pow2_chunk(width - c);
    const DenseBlockView y = op.y.columns(c, g);
    if (c > 0) {
#pragma omp barrier
    }
    for (auto pi = static_cast<std::size_t>(tid); pi < np; pi += static_cast<std::size_t>(nt)) {
      sym_rows_any(view, sched, scratch, pi, op.x.columns(c, g), y, op.alpha, op.beta);
    }
#pragma omp barrier
    for (auto pi = static_cast<std::size_t>(tid); pi < np; pi += static_cast<std::size_t>(nt)) {
      sym_halo_add(sched, scratch, pi, y);
    }
    c += g;
  }
  return owned_dot(p, tid, nt, op);
}

/// Long-row decomposition: per column group, the owned short rows plus
/// each owned part's slice of every long row; then each long row's owner
/// sums the slices in part order. A group after the first starts with a
/// barrier that orders the previous group's slice reads against its writes.
double run_decomposed(Prepared& p, int tid, int nt, const Product& op) {
  const auto long_rows = p.decomposed->long_rows();
  const std::size_t nlong = long_rows.size();
  const std::size_t np = p.parts.size();
  const index_t width = op.x.width;
  const value_t alpha = op.alpha;
  const value_t beta = op.beta;
  const bool plain = alpha == 1.0 && beta == 0.0;
  double dot = 0.0;
  for (index_t c = 0; c < width;) {
    const index_t g = pow2_chunk(width - c);
    const Product group{op.x.columns(c, g), op.y.columns(c, g), alpha, beta, op.w};
    const DenseBlockView partial{p.slices.data(), static_cast<index_t>(nlong * np), g,
                                 kWidestChunk};
    if (c > 0) {
#pragma omp barrier
    }
    for (auto pi = static_cast<std::size_t>(tid); pi < np; pi += static_cast<std::size_t>(nt)) {
      const RowRange owned = p.parts[pi];
      const std::size_t k_end = p.long_first[pi + 1];
      index_t begin = owned.begin;
      for (std::size_t k = p.long_first[pi]; k < k_end; ++k) {
        dot += rows_pass(p, RowRange{begin, long_rows[k]}, group);
        begin = long_rows[k] + 1;
      }
      dot += rows_pass(p, RowRange{begin, owned.end}, group);
      for (std::size_t k = 0; k < nlong; ++k) {
        const auto slice = static_cast<index_t>(k * np + pi);
        run_rows_blocked(p, p.slice_rows, RowRange{slice, slice + 1}, group.x, partial, 1.0,
                         0.0);
      }
    }
#pragma omp barrier
    for (auto pi = static_cast<std::size_t>(tid); pi < np; pi += static_cast<std::size_t>(nt)) {
      const std::size_t k_end = p.long_first[pi + 1];
      for (std::size_t k = p.long_first[pi]; k < k_end; ++k) {
        value_t* const yr = group.y.row(long_rows[k]);
        for (index_t cc = 0; cc < g; ++cc) {
          value_t total = 0.0;
          for (std::size_t q = 0; q < np; ++q) {
            total += partial.at(static_cast<index_t>(k * np + q), cc);
          }
          yr[cc] = plain ? total : alpha * total + beta * yr[cc];
        }
        if (!op.w.empty()) dot += op.w[static_cast<std::size_t>(long_rows[k])] * yr[0];
      }
    }
    c += g;
  }
  return dot;
}

}  // namespace

PreparedSpmv::PreparedSpmv(const CsrMatrix& a, const SpmvOptions& opts)
    : config_(opts.config), nrows_(a.nrows()), ncols_(a.ncols()) {
  if (opts.threads < 0) throw std::invalid_argument{"PreparedSpmv: threads < 0"};
  if (opts.block_width < 1) throw std::invalid_argument{"PreparedSpmv: block_width < 1"};
  const KernelConfig& cfg = config_;
  const bool bound = cfg.x_access != XAccess::kIndirect;
  if (bound && (cfg.delta || cfg.symmetric || cfg.decomposed)) {
    throw std::invalid_argument{"PreparedSpmv: the bound plan " + cfg.describe() +
                                " runs on plain CSR only"};
  }
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  threads_ = threads;
  block_width_ = opts.block_width;
  Timer timer;
  auto prepared = std::make_shared<Prepared>();
  Prepared& p = *prepared;
  p.view = make_view(a);

  bool use_delta = cfg.delta;
  if (use_delta) {
    auto d = DeltaCsrMatrix::compress(a, threads);
    if (d) {
      p.delta = std::move(*d);
      p.delta_view = make_view(*p.delta);
      delta_applied_ = true;
    } else {
      use_delta = false;
    }
  }

  // Symmetric storage runs only where the config allows it
  // (KernelConfig::allows_symmetric), an incompressible delta config
  // counting as plain CSR. A matrix that turns out not to be exactly
  // symmetric falls back to the general kernels, like an incompressible
  // delta config.
  KernelConfig applied = cfg;
  applied.delta = use_delta;
  if (cfg.symmetric && applied.allows_symmetric()) {
    p.sym = SymCsrMatrix::try_build(a, threads);
    symmetric_applied_ = p.sym.has_value();
  }
  // Long-row decomposition runs on the CSR kernels (the tuner never
  // combines MB with IMB formats); a matrix without long rows keeps the
  // one-phase row plan.
  if (cfg.decomposed && !use_delta) {
    auto d = DecomposedCsrMatrix::decompose(a, /*threshold=*/0, threads);
    if (!d.long_rows().empty()) p.decomposed = std::move(d);
  }
  decomposed_applied_ = p.decomposed.has_value();
  if (symmetric_applied_) {
    p.phases = Phases::kSymmetric;
  } else if (p.decomposed) {
    p.phases = Phases::kDecomposed;
  } else if (cfg.schedule == Schedule::kDynamicChunks) {
    p.phases = Phases::kDynamic;
  }

  // The plan's one partition: thread ownership of every phase and of the
  // solver engine's vector operations.
  if (cfg.schedule == Schedule::kStaticRows) {
    p.parts = partition_equal_rows(a.nrows(), threads);
  } else if (p.decomposed) {
    p.parts = partition_balanced_nnz(p.decomposed->short_part(), threads);
  } else {
    p.parts = partition_balanced_nnz(a, threads);
  }
  const std::size_t np = p.parts.size();

  if (cfg.x_access == XAccess::kRegularized) {
    p.row_colind = row_index_colind(a.rowptr(), p.parts, threads);
    p.view.colind = p.row_colind.span();
  }

  if (symmetric_applied_) {
    p.sym_view = make_view(*p.sym);
    p.sym_sched = plan_sym_schedule(p.sym_view, p.parts);
    // Left untouched: every product's phase 1 zeroes a halo window from
    // the thread that owns it before anything reads it, and a width-k pass
    // touches only the first k / kWidestChunk of the array.
    p.sym_scratch = NumaArray<value_t>(p.sym_sched.scratch_elems);
  }

  if (p.decomposed) {
    // Cut every long row into np even nnz slices, slice q of long row k
    // becoming row k * np + q of slice_view.
    const DecomposedCsrMatrix& d = *p.decomposed;
    const auto lrp = d.long_rowptr();
    const auto long_rows = d.long_rows();
    const std::size_t nlong = long_rows.size();
    p.slice_rowptr.resize(nlong * np + 1);
    for (std::size_t k = 0; k < nlong; ++k) {
      const offset_t len = lrp[k + 1] - lrp[k];
      for (std::size_t q = 0; q < np; ++q) {
        p.slice_rowptr[k * np + q] =
            lrp[k] + len * static_cast<offset_t>(q) / static_cast<offset_t>(np);
      }
    }
    p.slice_rowptr[nlong * np] = lrp[nlong];
    p.slice_view = CsrView{p.slice_rowptr, d.long_colind(), d.long_values(),
                           static_cast<index_t>(nlong * np)};
    p.slices = NumaArray<value_t>(nlong * np * static_cast<std::size_t>(kWidestChunk));
    p.long_first.resize(np + 1);
    for (std::size_t q = 0; q < np; ++q) {
      p.long_first[q] = static_cast<std::size_t>(
          std::lower_bound(long_rows.begin(), long_rows.end(), p.parts[q].begin) -
          long_rows.begin());
    }
    p.long_first[np] = nlong;
  }

  // NUMA first-touch copies of the streaming arrays, initialized by the
  // owning threads. Only the one-phase row plan reads them by owned row.
  if (opts.first_touch && p.phases == Phases::kRows) {
    const auto parts = std::span<const RowRange>{p.parts};
    if (use_delta) {
      const DeltaCsrMatrix& d = *p.delta;
      const auto rp = d.rowptr();
      const auto rowptr_range = [&](RowRange r, bool last) {
        return ElemRange{r.begin, last ? static_cast<std::ptrdiff_t>(rp.size()) : r.end};
      };
      const auto nnz_range = [&](RowRange r, bool) {
        return ElemRange{rp[static_cast<std::size_t>(r.begin)],
                         rp[static_cast<std::size_t>(r.end)]};
      };
      const auto row_range = [&](RowRange r, bool) { return ElemRange{r.begin, r.end}; };
      first_touch_copy(rp, p.ft_rowptr, parts, threads, rowptr_range);
      first_touch_copy(d.first_col(), p.ft_first_col, parts, threads, row_range);
      first_touch_copy(d.values(), p.ft_values, parts, threads, nnz_range);
      if (d.width() == DeltaWidth::k8) {
        first_touch_copy(d.deltas8(), p.ft_deltas8, parts, threads, nnz_range);
      } else {
        first_touch_copy(d.deltas16(), p.ft_deltas16, parts, threads, nnz_range);
      }
      p.delta_view = DeltaView{p.ft_rowptr.span(),  p.ft_first_col.span(), p.ft_deltas8.span(),
                               p.ft_deltas16.span(), p.ft_values.span(),    d.width(),
                               d.nrows()};
    } else {
      const auto rp = a.rowptr();
      const auto rowptr_range = [&](RowRange r, bool last) {
        return ElemRange{r.begin, last ? static_cast<std::ptrdiff_t>(rp.size()) : r.end};
      };
      const auto nnz_range = [&](RowRange r, bool) {
        return ElemRange{rp[static_cast<std::size_t>(r.begin)],
                         rp[static_cast<std::size_t>(r.end)]};
      };
      first_touch_copy(rp, p.ft_rowptr, parts, threads, rowptr_range);
      // A bound plan's column array is already placed (P_ML) or never read.
      if (!bound) first_touch_copy(a.colind(), p.ft_colind, parts, threads, nnz_range);
      first_touch_copy(a.values(), p.ft_values, parts, threads, nnz_range);
      p.view = CsrView{p.ft_rowptr.span(), bound ? p.view.colind : p.ft_colind.span(),
                       p.ft_values.span(), a.nrows()};
    }
    first_touch_applied_ = true;
  }

  // The k-specialized impl tables: delta when applied, otherwise the
  // plain-CSR row kernels with the config's scalar transformations.
  if (use_delta) {
    p.block_rows = kDeltaBlockTable;
    p.local_dot = &local_delta_dot;
  } else if (cfg.x_access == XAccess::kUnitStride) {
    p.block_rows = kUnitStrideBlockTable;
    p.local_dot = &local_block_dot;
  } else {
    p.block_rows = csr_block_table<&Prepared::view>(cfg.vectorized, cfg.unrolled, cfg.prefetch);
    p.local_dot = pick<LocalCsrDot>(cfg.vectorized, cfg.unrolled, cfg.prefetch);
    prefetch_applied_ = cfg.prefetch && !symmetric_applied_;
  }
  if (p.decomposed) {
    p.slice_rows =
        csr_block_table<&Prepared::slice_view>(cfg.vectorized, cfg.unrolled, cfg.prefetch);
  }
  // Post-preparation structural contract: the partition must cover the
  // matrix exactly (a gap loses rows silently inside a persistent region).
  SPARTA_CHECK_STRUCTURE(std::span<const RowRange>{p.parts}, a.nrows());
  prepared_ = std::move(prepared);
  prep_seconds_ = timer.seconds();

  // Streaming-byte model for one product: the matrix arrays in the format
  // the kernel actually reads are streamed once regardless of the operand
  // width (the SpMM amortization), while the dense operands (x read, y
  // written) cost their footprint per column. bytes_per_run(width)
  // combines the two.
  const auto dnnz = static_cast<double>(a.nnz());
  const auto dnrows = static_cast<double>(a.nrows());
  double index_bytes = dnnz * static_cast<double>(sizeof(index_t));
  if (cfg.x_access == XAccess::kUnitStride) index_bytes = 0.0;  // colind never read
  if (delta_applied_) {
    index_bytes = dnnz * (prepared_->delta->width() == DeltaWidth::k8 ? 1.0 : 2.0) +
                  dnrows * static_cast<double>(sizeof(index_t));  // first_col
  }
  matrix_bytes_ = (dnrows + 1.0) * static_cast<double>(sizeof(offset_t)) + index_bytes +
                  dnnz * static_cast<double>(sizeof(value_t));
  if (symmetric_applied_) {
    // Symmetric storage streams the lower triangle + dense diagonal instead
    // of the full nonzero set — the halved matrix stream the format exists
    // for (halo traffic is cache-resident and excluded by the model).
    matrix_bytes_ = static_cast<double>(prepared_->sym->bytes());
  }
  vector_bytes_per_column_ =
      static_cast<double>(a.ncols() + a.nrows()) * static_cast<double>(sizeof(value_t));

  auto& reg = obs::Registry::global();
  reg.counter("kernels.prepare.calls").add();
  if (symmetric_applied_) reg.counter("kernels.prepare.symmetric").add();
  reg.histogram("kernels.prepare.micros").record(prep_seconds_ * 1e6);
  run_calls_ = reg.counter("kernels.run.calls");
  run_bytes_ = reg.counter("kernels.run.bytes");
  run_width_ = reg.gauge("kernels.run.block_width");
}

double PreparedSpmv::bytes_per_run(int width) const {
  return matrix_bytes_ + vector_bytes_per_column_ * static_cast<double>(width);
}

void PreparedSpmv::run(ConstDenseBlockView x, DenseBlockView y, value_t alpha,
                       value_t beta) const {
  if (x.width != y.width) {
    throw std::invalid_argument{"PreparedSpmv::run: operand width mismatch"};
  }
  // A bound plan reads X at the row indices.
  const index_t x_rows = config_.x_access == XAccess::kIndirect ? ncols_ : nrows_;
  if (x.rows < x_rows || y.rows < nrows_) {
    throw std::invalid_argument{"PreparedSpmv::run: operand shorter than the matrix"};
  }
  run_width_.set(static_cast<double>(x.width));
  const PreparedSpmv& self = *this;
#pragma omp parallel default(none) shared(self, x, y, alpha, beta) num_threads(threads_)
  { (void)self.run_team(x, y, alpha, beta); }
}

void PreparedSpmv::run(std::span<const value_t> x, std::span<value_t> y, value_t alpha,
                       value_t beta) const {
  run(ConstDenseBlockView::from_vector(x), DenseBlockView::from_vector(y), alpha, beta);
}

double PreparedSpmv::run_team(ConstDenseBlockView x, DenseBlockView y, value_t alpha,
                              value_t beta, std::span<const value_t> w) const {
  const int tid = omp_get_thread_num();
  const int nt = omp_get_num_threads();
  if (tid == 0) {
    run_calls_.add();
    run_bytes_.add(bytes_per_run(static_cast<int>(x.width)));
  }
  Prepared& p = *prepared_;
  const Product op{x, y, alpha, beta, w};
  switch (p.phases) {
    case Phases::kDynamic:
      return run_dynamic(p, tid, nt, op);
    case Phases::kSymmetric:
      return run_symmetric(p, tid, nt, op);
    case Phases::kDecomposed:
      return run_decomposed(p, tid, nt, op);
    case Phases::kRows:
      break;
  }
  return run_rows(p, tid, nt, op);
}

std::span<const RowRange> PreparedSpmv::region_parts() const {
  return prepared_->parts;
}

}  // namespace sparta::kernels
