// Multi-vector SpMM correctness: the width-1 block path must be bit-identical
// to the span path for every kernel config the tuner can emit, and the row
// plans to a per-row loop over the scalar row body; a prefetch and first
// touch must change no output bit; wider operands must agree with k
// independent SpMVs to reduction rounding, and the alpha/beta generalization
// must honor its identities. Also covers the block_width preparation hint,
// operand shape checks, run_team inside a caller's region, and the engine's
// spmm.
#include <gtest/gtest.h>

#include <omp.h>

#include <array>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "engine/solver_engine.hpp"
#include "gen/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/spmv_kernels.hpp"
#include "sparse/coo.hpp"
#include "sparse/delta_csr.hpp"
#include "sparse/partition.hpp"
#include "tuner/optimizations.hpp"

namespace sparta {
namespace {

aligned_vector<value_t> random_vector(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  aligned_vector<value_t> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

void expect_near(std::span<const value_t> got, std::span<const value_t> want, double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol) << "at index " << i;
  }
}

void expect_bitwise(std::span<const value_t> got, std::span<const value_t> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "not bit-identical at index " << i;
  }
}

// Column c of a rows x width row-major block, copied out contiguously.
aligned_vector<value_t> column_of(const aligned_vector<value_t>& block, std::size_t rows,
                                  std::size_t width, std::size_t c) {
  aligned_vector<value_t> out(rows);
  for (std::size_t r = 0; r < rows; ++r) out[r] = block[r * width + c];
  return out;
}

CsrMatrix test_matrix() { return gen::circuit_like(1500, 4, 3, 800, 420); }

// --- Width-1 bit-identity across every sweep config ------------------------

class SpmmWidth1BitIdentity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpmmWidth1BitIdentity, BlockViewMatchesSpanPathBitwise) {
  const CsrMatrix m = test_matrix();
  const auto& combo = combined_optimization_sets()[GetParam()];
  const auto cfg = config_for(combo);
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = cfg, .threads = 4}};

  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 421);
  aligned_vector<value_t> y_span(static_cast<std::size_t>(m.nrows()), -3.0);
  aligned_vector<value_t> y_block(static_cast<std::size_t>(m.nrows()), -3.0);

  prepared.run(std::span<const value_t>{x}, std::span<value_t>{y_span});
  prepared.run(kernels::ConstDenseBlockView::from_vector(x),
               kernels::DenseBlockView::from_vector(y_block));
  expect_bitwise(y_block, y_span);

  aligned_vector<value_t> want(static_cast<std::size_t>(m.nrows()));
  spmv_reference(m, x, want);
  expect_near(y_span, want, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AllSweepConfigs, SpmmWidth1BitIdentity,
                         ::testing::Range<std::size_t>(0, 15), [](const auto& info) {
                           return "combo_" + std::to_string(info.param);
                         });

/// y = A x by a serial loop over the scalar row body a contiguous width-1
/// product runs per row, bounded by the view's nonzero count as there.
template <bool V, bool U, bool P>
aligned_vector<value_t> per_row_product(const CsrMatrix& m, std::span<const value_t> x) {
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  const auto rp = m.rowptr();
  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    y[k] = kernels::detail::csr_row<V, U, P>(m.colind().data(), m.values().data(), x.data(),
                                             rp[k], rp[k + 1], m.nnz());
  }
  return y;
}

// Every row plan — any partition, any schedule — computes each row with the
// scalar row body of its transformations, so it reproduces the per-row loop
// bit-for-bit.
TEST(SpmmWidth1BitIdentity, MatchesPerRowKernelBitwise) {
  const CsrMatrix m = test_matrix();
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 422);
  const auto n = static_cast<std::size_t>(m.nrows());

  struct Case {
    sim::KernelConfig cfg;
    aligned_vector<value_t> want;
  };
  sim::KernelConfig base;
  sim::KernelConfig vec = base;
  vec.vectorized = true;
  sim::KernelConfig pref = base;
  pref.prefetch = true;
  sim::KernelConfig unroll = base;
  unroll.vectorized = true;
  unroll.unrolled = true;
  sim::KernelConfig unroll_pref = unroll;
  unroll_pref.prefetch = true;
  sim::KernelConfig rows = base;
  rows.schedule = sim::Schedule::kStaticRows;
  sim::KernelConfig dynamic = base;
  dynamic.schedule = sim::Schedule::kDynamicChunks;
  const Case cases[] = {{base, per_row_product<false, false, false>(m, x)},
                        {vec, per_row_product<true, false, false>(m, x)},
                        {pref, per_row_product<false, false, true>(m, x)},
                        {unroll, per_row_product<true, true, false>(m, x)},
                        {unroll_pref, per_row_product<true, true, true>(m, x)},
                        {rows, per_row_product<false, false, false>(m, x)},
                        {dynamic, per_row_product<false, false, false>(m, x)}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.cfg.describe());
    const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = c.cfg, .threads = 4}};
    aligned_vector<value_t> y(n, -3.0);
    prepared.run(std::span<const value_t>{x}, std::span<value_t>{y});
    expect_bitwise(y, c.want);
  }
}

// --- A prefetch changes no output bit --------------------------------------

/// Matrices that put the cross-row prefetch's reach at the edges of the
/// stream: rows of 1-3 nonzeros (the prefetch lands rows ahead), fewer
/// nonzeros than the distance, empty rows, and a tail of one-nonzero rows
/// that all sit within the distance of the stream's end; the last has two
/// long rows so the decomposed plan runs its slices. The second and third
/// hold a multiple of 16 nonzeros, so colind's 64-byte-rounded allocation
/// ends at the stream's end and a read one past it hits ASan's redzone.
std::vector<std::pair<const char*, CsrMatrix>> prefetch_edge_matrices() {
  std::vector<std::pair<const char*, CsrMatrix>> out;
  out.emplace_back("powerlaw_short_rows", gen::powerlaw(3000, 2.2, 3, 460));
  CooMatrix tiny{9, 11};
  const std::array<index_t, 5> tiny_len{3, 4, 1, 5, 3};
  for (index_t r = 0; r < 5; ++r) {
    for (index_t j = 0; j < tiny_len[static_cast<std::size_t>(r)]; ++j) {
      tiny.add(2 * r, (6 * r + 2 * j) % 11, 1.0 + r + 0.5 * j);
    }
  }
  out.emplace_back("fewer_nonzeros_than_distance", CsrMatrix::from_coo(tiny));
  CooMatrix gaps{700, 700};
  index_t count = 0;
  for (index_t i = 0; i < 700; ++i) {
    const index_t len = i >= 650 ? 1 : i % 5 == 0 ? 0 : 1 + i % 3;
    for (index_t j = 0; j < len; ++j) gaps.add(i, (i * 7 + j * 131) % 700, 0.5 + j);
    count += len;
  }
  for (index_t extra = 0; (count + extra) % 16 != 0; ++extra) gaps.add(1, 300 + extra, 1.0);
  out.emplace_back("empty_rows_and_short_tail", CsrMatrix::from_coo(gaps));
  out.emplace_back("short_rows_and_long_rows", gen::circuit_like(3000, 1, 2, 1500, 461));
  return out;
}

/// The scalar-body transformations a +pf plan can combine with.
constexpr std::array<std::pair<bool, bool>, 3> kVecUnroll{
    std::pair{false, false}, std::pair{true, false}, std::pair{true, true}};

// Every +pf plan — row, dynamic and decomposed; scalar, vectorized and
// unrolled bodies; widths 1, 2, 3, 4, 8 and 13, with the direct store and
// with alpha/beta — writes the same Y, bit for bit, as the same plan
// without +pf. Run under AddressSanitizer, a prefetch guard that lets colind be
// read past the view's end fails here.
TEST(PrefetchBitIdentity, PlansMatchTheirPlanWithoutPrefetch) {
  sim::KernelConfig dynamic;
  dynamic.schedule = sim::Schedule::kDynamicChunks;
  sim::KernelConfig decomposed;
  decomposed.decomposed = true;
  const auto matrices = prefetch_edge_matrices();
  ASSERT_LT(matrices[1].second.nnz(), kernels::kPrefetchDistance);
  ASSERT_EQ(matrices[1].second.nnz() % 16, 0);
  ASSERT_EQ(matrices[2].second.nnz() % 16, 0);
  for (const auto& entry : matrices) {
    const std::string name = entry.first;
    const CsrMatrix& m = entry.second;
    const auto rows = static_cast<std::size_t>(m.nrows());
    const auto cols = static_cast<std::size_t>(m.ncols());
    for (sim::KernelConfig plan : {sim::KernelConfig{}, dynamic, decomposed}) {
      for (const auto& [vec, unroll] : kVecUnroll) {
        plan.vectorized = vec;
        plan.unrolled = unroll;
        sim::KernelConfig with_pf = plan;
        with_pf.prefetch = true;
        const kernels::PreparedSpmv off{m, kernels::SpmvOptions{.config = plan, .threads = 4}};
        const kernels::PreparedSpmv on{m, kernels::SpmvOptions{.config = with_pf, .threads = 4}};
        ASSERT_TRUE(on.prefetch_applied());
        ASSERT_FALSE(off.prefetch_applied());
        if (plan.decomposed && name == "short_rows_and_long_rows") {
          ASSERT_TRUE(on.decomposed_applied());
        }
        for (const int k : {1, 2, 3, 4, 8, 13}) {
          for (const value_t beta : {0.0, -1.5}) {
            const value_t alpha = beta == 0.0 ? 1.0 : 0.75;
            SCOPED_TRACE(name + " " + with_pf.describe() + " width " + std::to_string(k) +
                         " beta " + std::to_string(beta));
            const auto kk = static_cast<std::size_t>(k);
            const auto xs = random_vector(cols * kk, 462 + kk);
            const kernels::ConstDenseBlockView xb{xs.data(), m.ncols(), k, k};
            aligned_vector<value_t> want = random_vector(rows * kk, 463 + kk);
            aligned_vector<value_t> got = want;
            off.run(xb, kernels::DenseBlockView{want.data(), m.nrows(), k, k}, alpha, beta);
            on.run(xb, kernels::DenseBlockView{got.data(), m.nrows(), k, k}, alpha, beta);
            expect_bitwise(got, want);
          }
        }
      }
    }
  }
}

// The fused-dot path (run_team with a weight vector) of a +pf plan returns
// the same per-thread partial sums and the same y as the plan without +pf.
TEST(PrefetchBitIdentity, FusedDotMatchesPlanWithoutPrefetch) {
  sim::KernelConfig dynamic;
  dynamic.schedule = sim::Schedule::kDynamicChunks;
  sim::KernelConfig decomposed;
  decomposed.decomposed = true;
  for (const auto& entry : prefetch_edge_matrices()) {
    const CsrMatrix& m = entry.second;
    const auto rows = static_cast<std::size_t>(m.nrows());
    const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 464);
    const auto w = random_vector(rows, 465);
    // y = 0.75 A x - 1.5 y fused with w.y; each team thread's partial sum.
    const auto fused = [&m, &x, &w](const sim::KernelConfig& cfg, aligned_vector<value_t>& y) {
      const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = cfg, .threads = 4}};
      std::array<double, 4> partial{};
      const auto xb = kernels::ConstDenseBlockView::from_vector(x);
      const auto yb = kernels::DenseBlockView::from_vector(y);
      const std::span<const value_t> ws{w};
#pragma omp parallel default(none) num_threads(4) shared(prepared, xb, yb, ws, partial)
      {
        partial[static_cast<std::size_t>(omp_get_thread_num())] =
            prepared.run_team(xb, yb, 0.75, -1.5, ws);
      }
      return partial;
    };
    for (sim::KernelConfig plan : {sim::KernelConfig{}, dynamic, decomposed}) {
      for (const auto& [vec, unroll] : kVecUnroll) {
        plan.vectorized = vec;
        plan.unrolled = unroll;
        sim::KernelConfig with_pf = plan;
        with_pf.prefetch = true;
        SCOPED_TRACE(std::string{entry.first} + " " + with_pf.describe());
        aligned_vector<value_t> want = random_vector(rows, 466);
        aligned_vector<value_t> got = want;
        const auto want_dot = fused(plan, want);
        const auto got_dot = fused(with_pf, got);
        expect_bitwise(got, want);
        for (std::size_t t = 0; t < got_dot.size(); ++t) {
          EXPECT_EQ(got_dot[t], want_dot[t]) << "thread " << t;
        }
      }
    }
  }
}

// --- First touch changes no output bit -------------------------------------

// Each delta plan (8- and 16-bit streams, plain and +vec) and the row plan
// (plain and W3's csr+vec+unroll+pf) write the same Y and the same fused-dot
// partials with first touch as without it, at 1, 3 and 4 threads: the
// first-touch copies hold rowptr, the column stream (colind, or first_col
// and the deltas) and values, and a delta plan reads rowptr and values
// through the copied CSR view.
TEST(FirstTouchBitIdentity, PlansMatchTheirPlanWithoutFirstTouch) {
  const std::array<std::pair<const char*, CsrMatrix>, 2> matrices{
      std::pair{"delta8", gen::banded(900, 40, 7, 470)},
      std::pair{"delta16", gen::banded(3000, 1400, 9, 471)}};
  ASSERT_EQ(DeltaCsrMatrix::pick_width(matrices[0].second), DeltaWidth::k8);
  ASSERT_EQ(DeltaCsrMatrix::pick_width(matrices[1].second), DeltaWidth::k16);
  sim::KernelConfig delta;
  delta.delta = true;
  sim::KernelConfig delta_vec = delta;
  delta_vec.vectorized = true;
  sim::KernelConfig row_pf;
  row_pf.vectorized = row_pf.unrolled = row_pf.prefetch = true;
  for (const auto& entry : matrices) {
    const CsrMatrix& m = entry.second;
    const auto rows = static_cast<std::size_t>(m.nrows());
    const auto cols = static_cast<std::size_t>(m.ncols());
    for (const sim::KernelConfig& cfg : {delta, delta_vec, sim::KernelConfig{}, row_pf}) {
      for (const int threads : {1, 3, 4}) {
        SCOPED_TRACE(std::string{entry.first} + " " + cfg.describe() + " threads " +
                     std::to_string(threads));
        const kernels::PreparedSpmv off{m, kernels::SpmvOptions{.config = cfg, .threads = threads}};
        const kernels::PreparedSpmv on{
            m, kernels::SpmvOptions{.config = cfg, .threads = threads, .first_touch = true}};
        ASSERT_TRUE(on.first_touch_applied());
        ASSERT_FALSE(off.first_touch_applied());
        ASSERT_EQ(on.delta_applied(), cfg.delta);
        for (const int k : {1, 2, 3, 8, 13}) {
          for (const auto& [alpha, beta] : {std::pair{1.0, 0.0}, std::pair{2.5, -0.5}}) {
            SCOPED_TRACE("width " + std::to_string(k) + " beta " + std::to_string(beta));
            const auto kk = static_cast<std::size_t>(k);
            const auto xs = random_vector(cols * kk, 472 + kk);
            const kernels::ConstDenseBlockView xb{xs.data(), m.ncols(), k, k};
            aligned_vector<value_t> want = random_vector(rows * kk, 473 + kk);
            aligned_vector<value_t> got = want;
            off.run(xb, kernels::DenseBlockView{want.data(), m.nrows(), k, k}, alpha, beta);
            on.run(xb, kernels::DenseBlockView{got.data(), m.nrows(), k, k}, alpha, beta);
            expect_bitwise(got, want);
          }
        }
        // y = 2.5 A x - 0.5 y fused with w.y; each team thread's partial sum.
        const auto x = random_vector(cols, 474);
        const auto w = random_vector(rows, 475);
        const auto fused = [&x, &w, threads](const kernels::PreparedSpmv& plan,
                                             aligned_vector<value_t>& y) {
          std::vector<double> partial(static_cast<std::size_t>(threads));
          const auto xb = kernels::ConstDenseBlockView::from_vector(x);
          const auto yb = kernels::DenseBlockView::from_vector(y);
          const std::span<const value_t> ws{w};
#pragma omp parallel default(none) num_threads(threads) shared(plan, xb, yb, ws, partial)
          {
            partial[static_cast<std::size_t>(omp_get_thread_num())] =
                plan.run_team(xb, yb, 2.5, -0.5, ws);
          }
          return partial;
        };
        aligned_vector<value_t> want = random_vector(rows, 476);
        aligned_vector<value_t> got = want;
        const auto want_dot = fused(off, want);
        const auto got_dot = fused(on, got);
        expect_bitwise(got, want);
        for (std::size_t t = 0; t < got_dot.size(); ++t) {
          EXPECT_EQ(got_dot[t], want_dot[t]) << "thread " << t;
        }
      }
    }
  }
}

// --- k > 1 agrees with k independent SpMVs ---------------------------------

class SpmmWidths : public ::testing::TestWithParam<int> {};

TEST_P(SpmmWidths, MatchesSequentialSpmvsPerColumn) {
  const int k = GetParam();
  const CsrMatrix m = test_matrix();
  const auto rows = static_cast<std::size_t>(m.nrows());
  const auto cols = static_cast<std::size_t>(m.ncols());
  const auto kk = static_cast<std::size_t>(k);

  sim::KernelConfig configs[4];
  configs[1].vectorized = true;
  configs[2].delta = true;
  configs[3].decomposed = true;
  for (const auto& cfg : configs) {
    const kernels::PreparedSpmv prepared{
        m, kernels::SpmvOptions{.config = cfg, .threads = 4, .block_width = k}};
    const auto xs = random_vector(cols * kk, 430 + static_cast<std::uint64_t>(k));
    aligned_vector<value_t> ys(rows * kk, -5.0);
    prepared.run(
        kernels::ConstDenseBlockView{xs.data(), m.ncols(), k, k},
        kernels::DenseBlockView{ys.data(), m.nrows(), k, k});
    for (std::size_t c = 0; c < kk; ++c) {
      const auto xc = column_of(xs, cols, kk, c);
      aligned_vector<value_t> yc(rows);
      prepared.run(std::span<const value_t>{xc}, std::span<value_t>{yc});
      expect_near(column_of(ys, rows, kk, c), yc, 1e-10);
    }
  }
}

// Non-power widths exercise the greedy 8/4/2/1 chunking (5 = 4 + 1, 3 = 2 + 1).
INSTANTIATE_TEST_SUITE_P(Widths, SpmmWidths, ::testing::Values(2, 3, 4, 5, 8),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST(Spmm, EdgeMatrices) {
  struct Edge {
    const char* name;
    CsrMatrix matrix;
  };
  CooMatrix sparse_coo{500, 500};
  sparse_coo.add(0, 1, 2.0);
  sparse_coo.add(499, 0, -1.0);
  sparse_coo.add(250, 250, 3.0);
  CooMatrix single_coo{1, 40};
  for (index_t j = 0; j < 40; ++j) single_coo.add(0, j, 0.5 * j);
  const Edge edges[] = {{"empty_rows", CsrMatrix::from_coo(sparse_coo)},
                        {"single_row", CsrMatrix::from_coo(single_coo)},
                        {"dense_rows", gen::dense_rows_wide(300, 80, 431)}};
  const int k = 4;
  for (const Edge& e : edges) {
    const auto rows = static_cast<std::size_t>(e.matrix.nrows());
    const auto cols = static_cast<std::size_t>(e.matrix.ncols());
    const kernels::PreparedSpmv prepared{
        e.matrix, kernels::SpmvOptions{.threads = 4, .block_width = k}};
    const auto xs = random_vector(cols * k, 432);
    aligned_vector<value_t> ys(rows * k, -5.0);
    prepared.run(kernels::ConstDenseBlockView{xs.data(), e.matrix.ncols(), k, k},
                 kernels::DenseBlockView{ys.data(), e.matrix.nrows(), k, k});
    for (std::size_t c = 0; c < k; ++c) {
      const auto xc = column_of(xs, cols, k, c);
      aligned_vector<value_t> want(rows);
      spmv_reference(e.matrix, xc, want);
      expect_near(column_of(ys, rows, k, c), want, 1e-10);
    }
  }
}

// --- alpha/beta ------------------------------------------------------------

TEST(Spmm, AlphaBetaIdentities) {
  const CsrMatrix m = test_matrix();
  const auto n = static_cast<std::size_t>(m.nrows());
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.threads = 4}};
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 440);
  const auto y0 = random_vector(n, 441);
  aligned_vector<value_t> ax(n);
  prepared.run(std::span<const value_t>{x}, std::span<value_t>{ax});

  // beta = 1 accumulates: y = A x + y0.
  aligned_vector<value_t> y = y0;
  prepared.run(std::span<const value_t>{x}, std::span<value_t>{y}, 1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], ax[i] + y0[i], 1e-12);

  // alpha = 0 only rescales the accumulator.
  y = y0;
  prepared.run(std::span<const value_t>{x}, std::span<value_t>{y}, 0.0, -2.0);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], -2.0 * y0[i], 1e-12);

  // General case: y = alpha A x + beta y0.
  y = y0;
  prepared.run(std::span<const value_t>{x}, std::span<value_t>{y}, 2.5, -0.5);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], 2.5 * ax[i] - 0.5 * y0[i], 1e-10);
  }

  // And on the decomposed path, whose long rows merge the two passes.
  sim::KernelConfig dec;
  dec.decomposed = true;
  const kernels::PreparedSpmv decomposed{m, kernels::SpmvOptions{.config = dec, .threads = 4}};
  aligned_vector<value_t> ax_dec(n);
  decomposed.run(std::span<const value_t>{x}, std::span<value_t>{ax_dec});
  y = y0;
  decomposed.run(std::span<const value_t>{x}, std::span<value_t>{y}, 2.5, -0.5);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], 2.5 * ax_dec[i] - 0.5 * y0[i], 1e-10);
  }
}

// --- block_width hint and operand validation -------------------------------

TEST(Spmm, BlockWidthHintIsNotBinding) {
  const CsrMatrix m = test_matrix();
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.threads = 4, .block_width = 4}};
  EXPECT_EQ(prepared.block_width(), 4);

  // x/y traffic is charged per operand column; the matrix stream only once.
  const double per_column = static_cast<double>(m.ncols() + m.nrows()) * sizeof(value_t);
  EXPECT_DOUBLE_EQ(prepared.bytes_per_run(4) - prepared.bytes_per_run(1), 3.0 * per_column);
  EXPECT_DOUBLE_EQ(prepared.bytes_per_run(), prepared.bytes_per_run(4));
  EXPECT_GT(prepared.bytes_per_run(1), per_column);

  // A non-hinted width executes like any other (greedy 8/4/2/1 chunks).
  const int k = 3;
  const auto rows = static_cast<std::size_t>(m.nrows());
  const auto cols = static_cast<std::size_t>(m.ncols());
  const auto xs = random_vector(cols * k, 450);
  aligned_vector<value_t> ys(rows * k);
  prepared.run(kernels::ConstDenseBlockView{xs.data(), m.ncols(), k, k},
               kernels::DenseBlockView{ys.data(), m.nrows(), k, k});
  for (std::size_t c = 0; c < k; ++c) {
    const auto xc = column_of(xs, cols, k, c);
    aligned_vector<value_t> want(rows);
    spmv_reference(m, xc, want);
    expect_near(column_of(ys, rows, k, c), want, 1e-10);
  }

  EXPECT_THROW(kernels::PreparedSpmv(m, kernels::SpmvOptions{.block_width = 0}),
               std::invalid_argument);
}

TEST(Spmm, WidthMismatchThrows) {
  const CsrMatrix m = gen::diagonal(64);
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.threads = 2}};
  aligned_vector<value_t> xs(64 * 2, 1.0);
  aligned_vector<value_t> ys(64 * 4, 0.0);
  EXPECT_THROW(prepared.run(kernels::ConstDenseBlockView{xs.data(), 64, 2, 2},
                            kernels::DenseBlockView{ys.data(), 64, 4, 4}),
               std::invalid_argument);
}

// run() checks operand rows against the plan's source shape: a short X
// would be gathered past its end, a short Y written past it.
TEST(Spmm, ShortOperandThrows) {
  const CsrMatrix m = gen::stencil5(40, 40);  // 1600 x 1600
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.threads = 2}};
  EXPECT_EQ(prepared.nrows(), m.nrows());
  EXPECT_EQ(prepared.ncols(), m.ncols());
  aligned_vector<value_t> x(1600, 1.0), y(1600, 0.0), short_v(100, 0.0);
  EXPECT_THROW(prepared.run(short_v, y), std::invalid_argument);
  EXPECT_THROW(prepared.run(x, short_v), std::invalid_argument);
  aligned_vector<value_t> xs(1600 * 2, 1.0), ys(1600 * 2, 0.0);
  EXPECT_THROW(prepared.run(kernels::ConstDenseBlockView{xs.data(), 100, 2, 2},
                            kernels::DenseBlockView{ys.data(), 1600, 2, 2}),
               std::invalid_argument);
  EXPECT_THROW(prepared.run(kernels::ConstDenseBlockView{xs.data(), 1600, 2, 2},
                            kernels::DenseBlockView{ys.data(), 100, 2, 2}),
               std::invalid_argument);
  EXPECT_NO_THROW(prepared.run(x, y));

  // A wide plan: X needs ncols() rows, Y only nrows(); longer is fine.
  CooMatrix coo{50, 80};
  for (index_t i = 0; i < 50; ++i) coo.add(i, i + 30, 1.0);
  const CsrMatrix wide = CsrMatrix::from_coo(coo);
  const kernels::PreparedSpmv wide_plan{wide, kernels::SpmvOptions{.threads = 2}};
  EXPECT_EQ(wide_plan.nrows(), 50);
  EXPECT_EQ(wide_plan.ncols(), 80);
  aligned_vector<value_t> x50(50, 1.0), y50(50, 0.0);
  EXPECT_THROW(wide_plan.run(x50, y50), std::invalid_argument);
  EXPECT_NO_THROW(wide_plan.run(x, y50));
}

// --- Region-reentrant block path and the engine ----------------------------

// run_team from a caller's region — here 3 threads over a 4-part plan, so
// one thread owns two parts — is the one-shot run() bit-for-bit: the
// results depend on the prepared partition, never on the team.
TEST(Spmm, RunTeamInsideRegionMatchesRun) {
  const CsrMatrix m = gen::circuit_like(1800, 3, 4, 1500, 305);
  const int k = 4;
  const auto rows = static_cast<std::size_t>(m.nrows());
  const auto cols = static_cast<std::size_t>(m.ncols());
  const auto xs = random_vector(cols * k, 452);
  const kernels::ConstDenseBlockView xb{xs.data(), m.ncols(), k, k};
  sim::KernelConfig dynamic;
  dynamic.schedule = sim::Schedule::kDynamicChunks;
  sim::KernelConfig decomposed;
  decomposed.decomposed = true;
  for (const sim::KernelConfig& cfg : {sim::KernelConfig{}, dynamic, decomposed}) {
    SCOPED_TRACE(cfg.describe());
    const kernels::PreparedSpmv prepared{
        m, kernels::SpmvOptions{.config = cfg, .threads = 4, .block_width = k}};
    aligned_vector<value_t> want(rows * k, -5.0);
    prepared.run(xb, kernels::DenseBlockView{want.data(), m.nrows(), k, k}, 1.5, 0.25);

    aligned_vector<value_t> ys(rows * k, -5.0);
    const kernels::DenseBlockView yb{ys.data(), m.nrows(), k, k};
#pragma omp parallel default(none) num_threads(3) shared(prepared, xb, yb)
    { (void)prepared.run_team(xb, yb, 1.5, 0.25); }
    expect_bitwise(ys, want);
  }
}

// --- Long-row decomposition across widths ----------------------------------

/// Circuit-class matrix whose 4 dense rows of 1500 nonzeros exceed
/// kMinLongRow, so a decomposed plan has a long part.
CsrMatrix long_row_matrix() { return gen::circuit_like(1800, 3, 4, 1500, 305); }

kernels::PreparedSpmv decomposed_plan(const CsrMatrix& m, int block_width) {
  sim::KernelConfig cfg;
  cfg.decomposed = true;
  return kernels::PreparedSpmv{
      m, kernels::SpmvOptions{.config = cfg, .threads = 4, .block_width = block_width}};
}

// Products of widths 1, 8, 1 and 13 (8 + 4 + 1) in one region of a plan
// prepared for single vectors, separated by the barriers that order one
// product's slice reads against the next one's slice writes. The long-row
// slices hold 8 columns whatever the width hint, so the k = 8 product is
// one pass.
TEST(Spmm, DecomposedRegionRunTeamMatchesRun) {
  const CsrMatrix m = long_row_matrix();
  ASSERT_FALSE(long_rows(m).empty());
  const kernels::PreparedSpmv prepared = decomposed_plan(m, 1);
  const auto rows = static_cast<std::size_t>(m.nrows());
  const auto cols = static_cast<std::size_t>(m.ncols());
  const std::array<int, 4> widths{1, 8, 1, 13};
  const std::array<value_t, 4> betas{0.0, 0.25, 0.25, 0.0};
  std::array<aligned_vector<value_t>, 4> xs, want, got;
  for (std::size_t t = 0; t < widths.size(); ++t) {
    const int k = widths[t];
    const auto kk = static_cast<std::size_t>(k);
    xs[t] = random_vector(cols * kk, 470 + t);
    want[t] = random_vector(rows * kk, 480 + t);
    got[t] = want[t];
    prepared.run(kernels::ConstDenseBlockView{xs[t].data(), m.ncols(), k, k},
                 kernels::DenseBlockView{want[t].data(), m.nrows(), k, k}, 1.5, betas[t]);
  }
#pragma omp parallel default(none) num_threads(4) shared(prepared, m, widths, betas, xs, got)
  {
    for (std::size_t t = 0; t < widths.size(); ++t) {
      const int k = widths[t];
      if (t > 0) {
#pragma omp barrier
      }
      (void)prepared.run_team(kernels::ConstDenseBlockView{xs[t].data(), m.ncols(), k, k},
                              kernels::DenseBlockView{got[t].data(), m.nrows(), k, k}, 1.5,
                              betas[t]);
    }
  }
  for (std::size_t t = 0; t < widths.size(); ++t) {
    SCOPED_TRACE("width " + std::to_string(widths[t]));
    expect_bitwise(got[t], want[t]);
  }
}

// The width hint sizes nothing: plans prepared for 1 and for 8 columns
// split every width into the same 8/4/2/1 chunks, so Y is byte-identical.
TEST(Spmm, DecomposedPlanIsIndependentOfTheWidthHint) {
  const CsrMatrix m = long_row_matrix();
  const kernels::PreparedSpmv hint1 = decomposed_plan(m, 1);
  const kernels::PreparedSpmv hint8 = decomposed_plan(m, 8);
  const auto rows = static_cast<std::size_t>(m.nrows());
  const auto cols = static_cast<std::size_t>(m.ncols());
  for (const int k : {3, 8, 13}) {
    SCOPED_TRACE("width " + std::to_string(k));
    const auto kk = static_cast<std::size_t>(k);
    const auto xs = random_vector(cols * kk, 490 + kk);
    const kernels::ConstDenseBlockView xb{xs.data(), m.ncols(), k, k};
    aligned_vector<value_t> y1 = random_vector(rows * kk, 500 + kk);
    aligned_vector<value_t> y8 = y1;
    hint1.run(xb, kernels::DenseBlockView{y1.data(), m.nrows(), k, k}, 1.5, 0.25);
    hint8.run(xb, kernels::DenseBlockView{y8.data(), m.nrows(), k, k}, 1.5, 0.25);
    expect_bitwise(y1, y8);
  }
}

TEST(Spmm, EngineSpmmMatchesPreparedRun) {
  const CsrMatrix m = test_matrix();
  const int k = 4;
  const auto rows = static_cast<std::size_t>(m.nrows());
  const auto cols = static_cast<std::size_t>(m.ncols());
  const engine::SolverEngine eng{m, sim::KernelConfig{}, engine::EngineOptions{.threads = 4}};
  const auto xs = random_vector(cols * k, 453);
  const auto y0 = random_vector(rows * k, 454);
  aligned_vector<value_t> ys = y0;
  aligned_vector<value_t> want = y0;
  const kernels::ConstDenseBlockView xb{xs.data(), m.ncols(), k, k};
  eng.prepared().run(xb, kernels::DenseBlockView{want.data(), m.nrows(), k, k}, 1.5, 0.25);
  eng.spmm(xb, kernels::DenseBlockView{ys.data(), m.nrows(), k, k}, 1.5, 0.25);
  expect_near(ys, want, 1e-12);

  aligned_vector<value_t> bad(rows * 2);
  EXPECT_THROW(eng.spmm(xb, kernels::DenseBlockView{bad.data(), m.nrows(), 2, 2}),
               std::invalid_argument);
}

}  // namespace
}  // namespace sparta
