// Symmetric storage (SymCsr) end to end: the two-pass parallel builder is
// bit-identical to its serial twin for every thread count and round-trips
// through expand(); the symmetric plan (direct stores plus halo windows,
// through PreparedSpmv) agrees with the general reference within the
// documented reassociation tolerance at every operand width; try_build
// rejects without throwing; the validator names each corruption; the
// registry applies (and falls back from) symmetric storage; and the solver
// engine's CG runs on it inside the persistent region.
//
// Tolerance note: the symmetric kernel accumulates each y[i] from the
// diagonal product, the direct lower products, and the mirrored upper
// products in partition order — a different association of the same terms
// than the general row-major sum. With |values| and |x| <= O(1) and rows of
// <= a few hundred nonzeros, the drift is bounded by a few hundred ULPs of
// the largest partial sum; 1e-10 absolute on O(1) results leaves more than
// three orders of magnitude of headroom and matches the repo-wide kernel
// tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "check/validate.hpp"
#include "common/prng.hpp"
#include "engine/solver_engine.hpp"
#include "gen/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/spmv_sym.hpp"
#include "sim/traffic_model.hpp"
#include "sparse/sym_csr.hpp"

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

// Random symmetric matrix with a mix of present, absent, and explicitly
// stored *zero* diagonal entries — the three diagonal cases expand() must
// reproduce. Off-diagonals are emitted pairwise with one shared value, so
// the result is exactly (bitwise) symmetric.
CsrMatrix random_symmetric(index_t n, index_t lower_per_row, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  CooMatrix coo{n, n};
  for (index_t i = 0; i < n; ++i) {
    for (index_t k = 0; k < lower_per_row && i > 0; ++k) {
      const auto j = static_cast<index_t>(rng.bounded(static_cast<std::uint64_t>(i)));
      const value_t v = rng.uniform(-1.0, 1.0);
      coo.add(i, j, v);
      coo.add(j, i, v);
    }
    switch (rng.bounded(3)) {
      case 0: coo.add(i, i, rng.uniform(1.0, 2.0)); break;  // present
      case 1: coo.add(i, i, 0.0); break;                    // explicit zero
      default: break;                                       // absent
    }
  }
  coo.compress();
  return CsrMatrix::from_coo(coo);
}

// --- Builder ---------------------------------------------------------------

TEST(SymCsr, ParallelBuildBitIdenticalToSerialAcrossThreadCounts) {
  const CsrMatrix sources[] = {gen::stencil5(20, 17), random_symmetric(700, 4, 91),
                               gen::diagonal(64)};
  for (const auto& m : sources) {
    const SymCsrMatrix golden = SymCsrMatrix::build_serial(m);
    for (const int threads : {1, 2, 3, 8}) {
      const SymCsrMatrix parallel = SymCsrMatrix::build(m, threads);
      EXPECT_EQ(parallel, golden) << "threads = " << threads;
    }
  }
}

TEST(SymCsr, ExpandRoundTripsBitForBit) {
  const CsrMatrix m = random_symmetric(500, 3, 92);
  const SymCsrMatrix sym = SymCsrMatrix::build(m, 4);
  EXPECT_EQ(sym.expand(), m);
  EXPECT_EQ(sym.nnz(), m.nnz());
  EXPECT_EQ(sym.nnz(), 2 * sym.lower_nnz() + sym.diag_entries());
}

TEST(SymCsr, AccountsDiagonalPresence) {
  // 3x3 with: row 0 explicit zero diagonal, row 1 no diagonal, row 2 normal.
  CooMatrix coo{3, 3};
  coo.add(0, 0, 0.0);
  coo.add(1, 0, 2.0);
  coo.add(0, 1, 2.0);
  coo.add(2, 2, 5.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const SymCsrMatrix sym = SymCsrMatrix::build(m, 2);
  EXPECT_EQ(sym.lower_nnz(), 1);
  EXPECT_EQ(sym.diag_entries(), 2);  // the explicit zero counts, row 1 does not
  EXPECT_EQ(sym.diag_present()[0], 1);
  EXPECT_EQ(sym.diag_present()[1], 0);
  EXPECT_EQ(sym.diag_present()[2], 1);
  EXPECT_DOUBLE_EQ(sym.diag()[1], 0.0);
  EXPECT_EQ(sym.expand(), m);
}

TEST(SymCsr, TryBuildRejectsWithoutThrowing) {
  CooMatrix rect{2, 3};
  rect.add(0, 0, 1.0);
  // Unequal strict-lower (2) and strict-upper (1) counts.
  CooMatrix counts{3, 3};
  counts.add(1, 0, 1.0);
  counts.add(0, 1, 1.0);
  counts.add(2, 0, 1.0);
  // Balanced counts, one mirror pair with different values.
  CooMatrix value{3, 3};
  value.add(1, 0, 1.0);
  value.add(0, 1, 1.0);
  value.add(2, 1, 2.0);
  value.add(1, 2, 2.5);
  const struct {
    CsrMatrix m;
    const char* violation;
  } cases[] = {{CsrMatrix::from_coo(rect), "symcsr.source.square"},
               {CsrMatrix::from_coo(counts), "symcsr.source.mirror"},
               {CsrMatrix::from_coo(value), "symcsr.source.mirror"}};
  for (const auto& c : cases) {
    for (const int threads : {1, 3}) {
      EXPECT_FALSE(SymCsrMatrix::try_build(c.m, threads).has_value()) << c.violation;
      try {
        SymCsrMatrix::build(c.m, threads);
        ADD_FAILURE() << "build accepted a matrix try_build rejects";
      } catch (const check::ValidationError& e) {
        EXPECT_EQ(e.violation(), c.violation);
      }
    }
  }
  const CsrMatrix sym = random_symmetric(300, 3, 123);
  const auto built = SymCsrMatrix::try_build(sym, 3);
  ASSERT_TRUE(built.has_value());
  EXPECT_EQ(*built, SymCsrMatrix::build_serial(sym));
}

TEST(SymCsr, RejectsNonSquareAndAsymmetric) {
  try {
    SymCsrMatrix::build(gen::dense_rows_wide(10, 4, 93));  // 10 x 10 but asymmetric
    FAIL() << "asymmetric source accepted";
  } catch (const check::ValidationError& e) {
    EXPECT_EQ(e.violation(), "symcsr.source.mirror");
  }

  CooMatrix rect{2, 3};
  rect.add(0, 0, 1.0);
  try {
    SymCsrMatrix::build(CsrMatrix::from_coo(rect));
    FAIL() << "non-square source accepted";
  } catch (const check::ValidationError& e) {
    EXPECT_EQ(e.violation(), "symcsr.source.square");
  }

  // Pattern-symmetric but value-asymmetric must also be refused: the kernel
  // would silently compute with the lower value standing in for both.
  CooMatrix vals{2, 2};
  vals.add(0, 1, 1.0);
  vals.add(1, 0, 2.0);
  EXPECT_THROW(SymCsrMatrix::build(CsrMatrix::from_coo(vals)), check::ValidationError);
}

// --- Validator -------------------------------------------------------------

// Corrupt one field of a valid arrays view at a time and require the named
// violation (the same style as the other format corruption tests).
TEST(SymCsr, ValidatorNamesEachCorruption) {
  const CsrMatrix m = random_symmetric(60, 3, 94);
  const SymCsrMatrix sym = SymCsrMatrix::build(m);
  check::validate(sym);
  check::validate(sym, m);

  const auto arrays_of = [&](const SymCsrMatrix& s) {
    return check::SymArrays{s.nrows(),        s.nnz(),  s.rowptr(),
                            s.colind(),       s.values().size(), s.diag(),
                            s.diag_present()};
  };
  const auto expect_violation = [](const check::SymArrays& a, const std::string& want) {
    try {
      check::validate_sym(a);
      FAIL() << "corruption not detected, wanted " << want;
    } catch (const check::ValidationError& e) {
      EXPECT_EQ(e.violation(), want);
    }
  };

  {
    auto a = arrays_of(sym);
    a.source_nnz += 1;
    expect_violation(a, "symcsr.nnz.conservation");
  }
  {
    auto a = arrays_of(sym);
    a.values_size += 1;
    expect_violation(a, "symcsr.nnz.consistency");
  }
  {
    std::vector<std::uint8_t> flags{sym.diag_present().begin(), sym.diag_present().end()};
    flags[5] = 2;
    auto a = arrays_of(sym);
    a.diag_present = flags;
    expect_violation(a, "symcsr.diag.flag");
  }
  {
    // A nonzero diagonal value in a row whose presence flag says "absent"
    // (the flag itself stays untouched so nnz conservation still holds).
    std::vector<value_t> diag{sym.diag().begin(), sym.diag().end()};
    std::size_t absent = 0;
    while (sym.diag_present()[absent] != 0) ++absent;
    diag[absent] = 3.5;
    auto a = arrays_of(sym);
    a.diag = diag;
    expect_violation(a, "symcsr.diag.zero");
  }
  {
    // An on-diagonal column in the strictly-lower arrays.
    std::vector<index_t> cols{sym.colind().begin(), sym.colind().end()};
    ASSERT_FALSE(cols.empty());
    index_t row = 0;
    while (sym.rowptr()[static_cast<std::size_t>(row) + 1] == 0) ++row;
    cols[0] = row;
    auto a = arrays_of(sym);
    a.colind = cols;
    expect_violation(a, "symcsr.triangle.purity");
  }
}

// --- Kernels ---------------------------------------------------------------

/// The symmetric plan of `m` (which must be exactly symmetric).
kernels::PreparedSpmv symmetric_plan(const CsrMatrix& m, int threads, int block_width = 1) {
  sim::KernelConfig cfg;
  cfg.symmetric = true;
  kernels::PreparedSpmv prepared{
      m, kernels::SpmvOptions{.config = cfg, .threads = threads, .block_width = block_width}};
  EXPECT_TRUE(prepared.symmetric_applied());
  return prepared;
}

class SymKernelWidths : public ::testing::TestWithParam<int> {};

TEST_P(SymKernelWidths, MatchesGeneralReferencePerColumn) {
  const int k = GetParam();
  const CsrMatrix m = random_symmetric(900, 5, 95);
  const auto rows = static_cast<std::size_t>(m.nrows());
  const auto kk = static_cast<std::size_t>(k);
  const auto xs = random_vector(rows * kk, 96 + static_cast<std::uint64_t>(k));
  // Scratch sized for the width (one column group) and for width 1 (k
  // groups of one column each).
  for (const int hint : {k, 1}) {
    const kernels::PreparedSpmv prepared = symmetric_plan(m, 4, hint);
    aligned_vector<value_t> ys(rows * kk, -5.0);
    prepared.run(kernels::ConstDenseBlockView{xs.data(), m.ncols(), k, k},
                 kernels::DenseBlockView{ys.data(), m.nrows(), k, k});
    for (std::size_t c = 0; c < kk; ++c) {
      aligned_vector<value_t> xc(rows), want(rows);
      for (std::size_t r = 0; r < rows; ++r) xc[r] = xs[r * kk + c];
      spmv_reference(m, xc, want);
      for (std::size_t r = 0; r < rows; ++r) {
        ASSERT_NEAR(ys[r * kk + c], want[r], 1e-10)
            << "row " << r << " column " << c << " hint " << hint;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SymKernelWidths, ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) { return "k" + std::to_string(info.param); });

TEST(SymKernels, DeterministicForAFixedThreadCount) {
  const CsrMatrix m = random_symmetric(1200, 6, 97);
  const auto n = static_cast<std::size_t>(m.nrows());
  const auto x = random_vector(n, 98);
  for (const int threads : {1, 3, 8}) {
    const kernels::PreparedSpmv prepared = symmetric_plan(m, threads);
    aligned_vector<value_t> first(n), second(n);
    prepared.run(std::span<const value_t>{x}, std::span<value_t>{first});
    prepared.run(std::span<const value_t>{x}, std::span<value_t>{second});
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(first[i], second[i]) << "nondeterministic at row " << i;
    }
  }
}

TEST(SymKernels, AlphaBetaIdentities) {
  // Scaled products against the unscaled one, per operand width: alpha
  // reaches the direct stores, the own-part mirrors and the halo windows.
  const CsrMatrix m = random_symmetric(400, 4, 99);
  const auto n = static_cast<std::size_t>(m.nrows());
  for (const int k : {1, 2, 4, 8}) {
    const auto kk = static_cast<std::size_t>(k);
    const auto x = random_vector(n * kk, 100 + kk);
    const auto y0 = random_vector(n * kk, 101 + kk);
    const kernels::ConstDenseBlockView xs{x.data(), m.ncols(), k, k};
    const kernels::PreparedSpmv prepared = symmetric_plan(m, 4, k);
    aligned_vector<value_t> ax(n * kk);
    prepared.run(xs, kernels::DenseBlockView{ax.data(), m.nrows(), k, k});

    aligned_vector<value_t> y = y0;
    prepared.run(xs, kernels::DenseBlockView{y.data(), m.nrows(), k, k}, 2.5, -0.5);
    for (std::size_t i = 0; i < n * kk; ++i) {
      ASSERT_NEAR(y[i], 2.5 * ax[i] - 0.5 * y0[i], 1e-10) << "at element " << i << " k " << k;
    }
  }
}

TEST(SymKernels, BetaZeroNeverReadsY) {
  // beta = 0 stores the product without reading Y, so NaNs already in Y
  // cannot leak into it (the direct-store rule of every plan).
  const CsrMatrix m = random_symmetric(500, 4, 120);
  const auto n = static_cast<std::size_t>(m.nrows());
  for (const int k : {1, 4}) {
    const auto kk = static_cast<std::size_t>(k);
    const auto x = random_vector(n * kk, 121);
    const kernels::PreparedSpmv prepared = symmetric_plan(m, 4, k);
    aligned_vector<value_t> want(n * kk);
    prepared.run(kernels::ConstDenseBlockView{x.data(), m.ncols(), k, k},
                 kernels::DenseBlockView{want.data(), m.nrows(), k, k}, 0.5, 0.0);
    aligned_vector<value_t> y(n * kk, std::numeric_limits<value_t>::quiet_NaN());
    prepared.run(kernels::ConstDenseBlockView{x.data(), m.ncols(), k, k},
                 kernels::DenseBlockView{y.data(), m.nrows(), k, k}, 0.5, 0.0);
    for (std::size_t i = 0; i < n * kk; ++i) {
      ASSERT_TRUE(std::isfinite(y[i])) << "NaN leaked at element " << i << " k " << k;
      ASSERT_EQ(y[i], want[i]) << "at element " << i << " k " << k;
    }
  }
}

TEST(SymKernels, ScheduleSizesTheHaloOnly) {
  // Scratch holds rows [base_p, begin_p) of each part, kWidestChunk columns
  // each: the rows below its first row that its mirrors reach. base_p is
  // recomputed here from the stored columns.
  const CsrMatrix m = random_symmetric(1000, 5, 122);
  const SymCsrMatrix sym = SymCsrMatrix::build(m);
  const auto parts = partition_balanced_nnz(m, 4);
  const kernels::SymSchedule sched = kernels::plan_sym_schedule(kernels::make_view(sym), parts);
  std::size_t halo_rows = 0;
  for (const RowRange r : parts) {
    index_t base = r.begin;
    for (index_t i = r.begin; i < r.end; ++i) {
      for (const index_t c : sym.row_cols(i)) base = std::min(base, c);
    }
    halo_rows += static_cast<std::size_t>(r.begin - base);
  }
  EXPECT_GT(halo_rows, 0u);
  EXPECT_EQ(sched.scratch_elems, halo_rows * 8);
}

// --- Registry dispatch and fallback ----------------------------------------

TEST(SymPrepared, AppliesOnSymmetricMatrixAndMatchesGeneral) {
  const CsrMatrix m = random_symmetric(800, 5, 102);
  sim::KernelConfig cfg;
  cfg.symmetric = true;
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = cfg, .threads = 4}};
  EXPECT_TRUE(prepared.symmetric_applied());

  const kernels::PreparedSpmv general{m, kernels::SpmvOptions{.threads = 4}};
  const auto n = static_cast<std::size_t>(m.nrows());
  const auto x = random_vector(n, 103);
  aligned_vector<value_t> y_sym(n), y_gen(n);
  prepared.run(std::span<const value_t>{x}, std::span<value_t>{y_sym});
  general.run(std::span<const value_t>{x}, std::span<value_t>{y_gen});
  expect_near(y_sym, y_gen, 1e-10);

  // The acceptance gate: symmetric storage streams well under the general
  // matrix bytes (exactly the traffic-model ratio, which is < 0.6 whenever
  // off-diagonals dominate).
  const double per_column = static_cast<double>(m.ncols() + m.nrows()) * sizeof(value_t);
  const double sym_matrix = prepared.bytes_per_run(1) - per_column;
  const double gen_matrix = general.bytes_per_run(1) - per_column;
  EXPECT_NEAR(sym_matrix / gen_matrix, sim::sym_matrix_stream_ratio(m), 1e-12);
}

TEST(SymPrepared, FallsBackOnAsymmetricMatrix) {
  const CsrMatrix m = gen::random_uniform(300, 6, 104);
  sim::KernelConfig cfg;
  cfg.symmetric = true;
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = cfg, .threads = 4}};
  EXPECT_FALSE(prepared.symmetric_applied());

  const auto n = static_cast<std::size_t>(m.nrows());
  const auto x = random_vector(n, 105);
  aligned_vector<value_t> y(n), want(n);
  prepared.run(std::span<const value_t>{x}, std::span<value_t>{y});
  spmv_reference(m, x, want);
  expect_near(y, want, 1e-10);
}

TEST(SymPrepared, RegionRunTeamMatchesRun) {
  // Products of widths 1, 8, 1 and 13 (8 + 4 + 1) in one region of a plan
  // prepared for single vectors, separated by the barriers that order one
  // product's halo reads against the next one's halo writes. The halo is
  // sized for 8 columns whatever the width hint, so the k = 8 product is
  // one pass, and each pass packs the windows at its own width.
  const CsrMatrix m = random_symmetric(900, 4, 106);
  const kernels::PreparedSpmv prepared = symmetric_plan(m, 4);
  const auto n = static_cast<std::size_t>(m.nrows());
  const std::array<int, 4> widths{1, 8, 1, 13};
  const std::array<value_t, 4> betas{0.0, 0.25, 0.25, 0.0};
  std::array<aligned_vector<value_t>, 4> xs, want, got;
  for (std::size_t t = 0; t < widths.size(); ++t) {
    const int k = widths[t];
    const auto kk = static_cast<std::size_t>(k);
    xs[t] = random_vector(n * kk, 107 + t);
    want[t] = random_vector(n * kk, 111 + t);
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
  // Same schedule, same traversal order: the region path is the one-shot
  // path bit-for-bit.
  for (std::size_t t = 0; t < widths.size(); ++t) {
    for (std::size_t i = 0; i < got[t].size(); ++i) {
      ASSERT_EQ(got[t][i], want[t][i]) << "region path diverges, width " << widths[t]
                                       << " element " << i;
    }
  }
}

TEST(SymPrepared, FusedDotMatchesSeparateProductAndDot) {
  const CsrMatrix m = random_symmetric(600, 4, 109);
  const kernels::PreparedSpmv prepared = symmetric_plan(m, 2);
  const auto n = static_cast<std::size_t>(m.nrows());
  const auto x = random_vector(n, 110);
  const auto w = random_vector(n, 111);
  aligned_vector<value_t> y_a(n), y_b(n);
  const double dot_fused =
      prepared.run_team(kernels::ConstDenseBlockView::from_vector(x),
                        kernels::DenseBlockView::from_vector(y_a), 1.0, 0.0, w);
  prepared.run(std::span<const value_t>{x}, std::span<value_t>{y_b});
  double dot_separate = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(y_a[i], y_b[i]) << "fused dot pass diverges at row " << i;
    dot_separate += w[i] * y_b[i];
  }
  EXPECT_NEAR(dot_fused, dot_separate, 1e-9 * static_cast<double>(n));
}

// --- Engine ----------------------------------------------------------------

TEST(SymEngine, CgOnSymmetricStorageMatchesGeneralCg) {
  const CsrMatrix m = gen::stencil5(24, 24);  // SPD
  const auto n = static_cast<std::size_t>(m.nrows());
  const auto b = random_vector(n, 112);

  sim::KernelConfig sym_cfg;
  sym_cfg.symmetric = true;
  const engine::SolverEngine sym_eng{m, sym_cfg, engine::EngineOptions{.threads = 4}};
  ASSERT_TRUE(sym_eng.prepared().symmetric_applied());
  const engine::SolverEngine gen_eng{m, sim::KernelConfig{}, engine::EngineOptions{.threads = 4}};

  aligned_vector<value_t> x_sym(n, 0.0), x_gen(n, 0.0);
  const auto r_sym = sym_eng.cg(b, x_sym);
  const auto r_gen = gen_eng.cg(b, x_gen);
  EXPECT_TRUE(r_sym.converged);
  EXPECT_TRUE(r_gen.converged);
  // Both solved the same SPD system to the same tolerance; the iterates may
  // round differently, but the solutions agree to solver accuracy.
  aligned_vector<value_t> ax(n);
  spmv_reference(m, x_sym, ax);
  double rnorm = 0.0, bnorm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    rnorm += (ax[i] - b[i]) * (ax[i] - b[i]);
    bnorm += b[i] * b[i];
  }
  EXPECT_LE(rnorm, 1e-12 * bnorm);
  expect_near(x_sym, x_gen, 1e-6);
}

TEST(SymEngine, JacobiPreconditionedCgConvergesOnSymmetricStorage) {
  const CsrMatrix m = gen::stencil5(20, 16);
  const auto n = static_cast<std::size_t>(m.nrows());
  const auto b = random_vector(n, 113);
  sim::KernelConfig cfg;
  cfg.symmetric = true;
  const engine::SolverEngine eng{
      m, cfg, engine::EngineOptions{.threads = 3, .jacobi = true}};
  ASSERT_TRUE(eng.prepared().symmetric_applied());
  aligned_vector<value_t> x(n, 0.0);
  const auto r = eng.cg(b, x);
  EXPECT_TRUE(r.converged);
}

}  // namespace
}  // namespace sparta
