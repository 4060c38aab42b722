// Correctness tests for every real host kernel: each optimized variant,
// prepared as a kernels::PreparedSpmv plan, must reproduce the reference
// SpMV on a battery of matrix families at 1, 4 and 37 threads, and the
// registry must dispatch every KernelConfig the tuner can emit (all 15
// sweep sets x schedules) and the paper's two bound micro-benchmark plans.
#include <gtest/gtest.h>

#include <omp.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "gen/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "sparse/coo.hpp"
#include "sparse/delta_csr.hpp"
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

struct KernelMatrixCase {
  const char* name;
  CsrMatrix (*make)();
};

class KernelCorrectness : public ::testing::TestWithParam<KernelMatrixCase> {
 protected:
  void SetUp() override {
    matrix_ = GetParam().make();
    x_ = random_vector(static_cast<std::size_t>(matrix_.ncols()), 1234);
    expected_.resize(static_cast<std::size_t>(matrix_.nrows()));
    spmv_reference(matrix_, x_, expected_);
  }

  /// The plan for `cfg` reproduces the reference at 1, 4 and 37 threads
  /// (37 partitions exceed the rows of the small families).
  void expect_config(const sim::KernelConfig& cfg, double tol) const {
    for (const int threads : {1, 4, 37}) {
      SCOPED_TRACE(cfg.describe() + " at " + std::to_string(threads) + " threads");
      const kernels::PreparedSpmv prepared{
          matrix_, kernels::SpmvOptions{.config = cfg, .threads = threads}};
      aligned_vector<value_t> y(expected_.size(), -7.0);
      prepared.run(x_, y);
      expect_near(y, expected_, tol);
    }
  }

  CsrMatrix matrix_;
  aligned_vector<value_t> x_;
  aligned_vector<value_t> expected_;
};

TEST_P(KernelCorrectness, BaselineCsr) { expect_config(sim::KernelConfig{}, 1e-12); }

TEST_P(KernelCorrectness, VectorizedCsr) {
  sim::KernelConfig cfg;
  cfg.vectorized = true;
  expect_config(cfg, 1e-10);
}

TEST_P(KernelCorrectness, PrefetchCsr) {
  sim::KernelConfig cfg;
  cfg.prefetch = true;
  expect_config(cfg, 1e-12);
}

TEST_P(KernelCorrectness, UnrolledCsr) {
  sim::KernelConfig cfg;
  cfg.vectorized = true;
  cfg.unrolled = true;
  expect_config(cfg, 1e-10);
}

TEST_P(KernelCorrectness, UnrolledPrefetchCsr) {
  sim::KernelConfig cfg;
  cfg.vectorized = true;
  cfg.unrolled = true;
  cfg.prefetch = true;
  expect_config(cfg, 1e-10);
}

TEST_P(KernelCorrectness, AutoScheduledCsr) {
  sim::KernelConfig cfg;
  cfg.schedule = sim::Schedule::kDynamicChunks;
  expect_config(cfg, 1e-12);
}

TEST_P(KernelCorrectness, StaticRowsCsr) {
  sim::KernelConfig cfg;
  cfg.schedule = sim::Schedule::kStaticRows;
  expect_config(cfg, 1e-12);
}

TEST_P(KernelCorrectness, DeltaCsrWhenCompressible) {
  sim::KernelConfig cfg;
  cfg.delta = true;
  const kernels::PreparedSpmv prepared{matrix_, kernels::SpmvOptions{.config = cfg}};
  EXPECT_EQ(prepared.delta_applied(), DeltaCsrMatrix::compress(matrix_).has_value());
  expect_config(cfg, 1e-12);
}

TEST_P(KernelCorrectness, DecomposedCsr) {
  sim::KernelConfig cfg;
  cfg.decomposed = true;
  expect_config(cfg, 1e-10);
}

TEST_P(KernelCorrectness, DecomposedVectorizedCsr) {
  sim::KernelConfig cfg;
  cfg.decomposed = true;
  cfg.vectorized = true;
  expect_config(cfg, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Families, KernelCorrectness,
    ::testing::Values(
        KernelMatrixCase{"stencil5", [] { return gen::stencil5(25, 20); }},
        KernelMatrixCase{"banded", [] { return gen::banded(1500, 80, 9, 301); }},
        KernelMatrixCase{"fem", [] { return gen::fem_like(1200, 5, 7, 250, 302); }},
        KernelMatrixCase{"random", [] { return gen::random_uniform(900, 15, 303); }},
        KernelMatrixCase{"powerlaw", [] { return gen::powerlaw(2000, 1.7, 300, 304); }},
        KernelMatrixCase{"circuit", [] { return gen::circuit_like(1800, 3, 4, 1500, 305); }},
        KernelMatrixCase{"diagonal", [] { return gen::diagonal(777); }},
        KernelMatrixCase{"denserows", [] { return gen::dense_rows_wide(300, 80, 306); }},
        KernelMatrixCase{"empty_rows",
                         [] {
                           CooMatrix coo{500, 500};
                           coo.add(0, 1, 2.0);
                           coo.add(499, 0, -1.0);
                           coo.add(250, 250, 3.0);
                           return CsrMatrix::from_coo(coo);
                         }}),
    [](const auto& info) { return std::string{info.param.name}; });

// --- Bound micro-benchmark plans (paper SIII-B) ----------------------------

sim::KernelConfig bound_config(sim::XAccess access) {
  sim::KernelConfig cfg;
  cfg.x_access = access;
  return cfg;
}

class BoundPlans : public ::testing::TestWithParam<sim::XAccess> {};

TEST_P(BoundPlans, ComputeRowScaledSums) {
  // Both bounds keep A's values but address x at the row index:
  // Y[i] = alpha * X[i] * sum(row i) + beta * Y[i].
  const CsrMatrix m = gen::banded(300, 30, 7, 311);
  const auto n = static_cast<std::size_t>(m.nrows());
  for (const auto& [threads, first_touch] : {std::pair{1, false}, std::pair{4, false},
                                             std::pair{4, true}}) {
    const kernels::PreparedSpmv plan{
        m, kernels::SpmvOptions{
               .config = bound_config(GetParam()), .threads = threads, .first_touch = first_touch}};
    ASSERT_EQ(plan.first_touch_applied(), first_touch);
    for (const index_t width : {1, 3, 8}) {
      for (const auto& [alpha, beta] : {std::pair{1.0, 0.0}, std::pair{1.5, 0.25}}) {
        SCOPED_TRACE(plan.config().describe() + " at " + std::to_string(threads) +
                     " threads, first touch " + std::to_string(first_touch) + ", width " +
                     std::to_string(width) + ", alpha " + std::to_string(alpha));
        const auto w = static_cast<std::size_t>(width);
        const auto x = random_vector(n * w, 312);
        const auto y0 = random_vector(n * w, 313);
        aligned_vector<value_t> y = y0;
        plan.run({x.data(), m.nrows(), width, width}, {y.data(), m.nrows(), width, width}, alpha,
                 beta);
        for (index_t i = 0; i < m.nrows(); ++i) {
          value_t row_sum = 0.0;
          for (value_t v : m.row_vals(i)) row_sum += v;
          for (std::size_t c = 0; c < w; ++c) {
            const std::size_t k = static_cast<std::size_t>(i) * w + c;
            ASSERT_NEAR(y[k], alpha * x[k] * row_sum + beta * y0[k], 1e-10)
                << "row " << i << " column " << c;
          }
        }
      }
    }
  }
}

TEST_P(BoundPlans, RunTeamFusesDotOverOwnedRows) {
  const CsrMatrix m = gen::random_uniform(400, 10, 314);
  const auto x = random_vector(static_cast<std::size_t>(m.nrows()), 315);
  const auto w = random_vector(static_cast<std::size_t>(m.nrows()), 316);
  const kernels::PreparedSpmv plan{
      m, kernels::SpmvOptions{.config = bound_config(GetParam()), .threads = 4}};
  aligned_vector<value_t> y(x.size(), 0.0);
  std::vector<double> partial(4, 0.0);
#pragma omp parallel num_threads(4) default(none) shared(plan, x, y, w, partial)
  partial[static_cast<std::size_t>(omp_get_thread_num())] =
      plan.run_team(kernels::ConstDenseBlockView::from_vector(x),
                    kernels::DenseBlockView::from_vector(y), 1.0, 0.0, w);
  aligned_vector<value_t> want(y.size());
  plan.run(x, want);
  EXPECT_EQ(y, want);
  const auto parts = plan.region_parts();
  for (std::size_t t = 0; t < parts.size(); ++t) {
    double dot = 0.0;
    for (index_t i = parts[t].begin; i < parts[t].end; ++i) {
      dot += w[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
    }
    EXPECT_NEAR(partial[t], dot, 1e-12 * (1.0 + std::abs(dot))) << "thread " << t;
  }
}

TEST_P(BoundPlans, RejectFormatRewritesAndShortX) {
  const CsrMatrix m = gen::banded(200, 20, 6, 317);
  for (const auto rewrite : {&sim::KernelConfig::delta, &sim::KernelConfig::symmetric,
                             &sim::KernelConfig::decomposed}) {
    sim::KernelConfig cfg = bound_config(GetParam());
    cfg.*rewrite = true;
    EXPECT_THROW(kernels::PreparedSpmv(m, kernels::SpmvOptions{.config = cfg, .threads = 2}),
                 std::invalid_argument)
        << cfg.describe();
  }
  // A bound reads x at the row indices, so a tall matrix needs nrows of x.
  const CsrMatrix tall = gen::banded(300, 20, 6, 318).slice_rows(0, 200).transpose();
  ASSERT_GT(tall.nrows(), tall.ncols());
  const kernels::PreparedSpmv plan{
      tall, kernels::SpmvOptions{.config = bound_config(GetParam()), .threads = 2}};
  aligned_vector<value_t> x(static_cast<std::size_t>(tall.ncols()), 1.0);
  aligned_vector<value_t> y(static_cast<std::size_t>(tall.nrows()));
  EXPECT_THROW(plan.run(x, y), std::invalid_argument);
  x.resize(y.size(), 1.0);
  EXPECT_NO_THROW(plan.run(x, y));
}

INSTANTIATE_TEST_SUITE_P(MlAndCmp, BoundPlans,
                         ::testing::Values(sim::XAccess::kRegularized,
                                           sim::XAccess::kUnitStride),
                         [](const auto& info) {
                           return info.param == sim::XAccess::kRegularized ? "Regularized"
                                                                          : "UnitStride";
                         });

TEST(BoundPlans, UnitStrideStreamsNoColumnIndices) {
  const CsrMatrix m = gen::banded(500, 24, 7, 319);
  const kernels::PreparedSpmv base{m, kernels::SpmvOptions{.threads = 2}};
  const kernels::PreparedSpmv ml{
      m, kernels::SpmvOptions{.config = bound_config(sim::XAccess::kRegularized), .threads = 2}};
  const kernels::PreparedSpmv cmp{
      m, kernels::SpmvOptions{.config = bound_config(sim::XAccess::kUnitStride), .threads = 2}};
  EXPECT_DOUBLE_EQ(ml.bytes_per_run(1), base.bytes_per_run(1));
  EXPECT_DOUBLE_EQ(base.bytes_per_run(1) - cmp.bytes_per_run(1),
                   static_cast<double>(m.nnz()) * sizeof(index_t));
}

// --- Registry: every sweep config must run correctly ----------------------

class RegistryDispatch : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RegistryDispatch, PreparedKernelMatchesReference) {
  const CsrMatrix m = gen::circuit_like(1500, 4, 3, 800, 320);
  const auto& combo = combined_optimization_sets()[GetParam()];
  const auto cfg = config_for(combo);
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = cfg, .threads = 4}};
  EXPECT_GE(prepared.prep_seconds(), 0.0);

  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 321);
  aligned_vector<value_t> want(static_cast<std::size_t>(m.nrows()));
  spmv_reference(m, x, want);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()), -3.0);
  prepared.run(x, y);
  expect_near(y, want, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AllSweepConfigs, RegistryDispatch,
                         ::testing::Range<std::size_t>(0, 15),
                         [](const auto& info) {
                           return "combo_" + std::to_string(info.param);
                         });

TEST(Registry, DeltaFallbackOnIncompressibleMatrix) {
  // Deltas above 16 bits: the registry must fall back to plain CSR.
  CooMatrix coo{3, 200000};
  coo.add(0, 0, 1.0);
  coo.add(0, 199999, 2.0);
  coo.add(1, 5, 3.0);
  coo.add(2, 100, 4.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  sim::KernelConfig cfg;
  cfg.delta = true;
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = cfg, .threads = 2}};
  EXPECT_FALSE(prepared.delta_applied());
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 322);
  aligned_vector<value_t> want(3), y(3);
  spmv_reference(m, x, want);
  prepared.run(x, y);
  expect_near(y, want, 1e-12);
}

TEST(Registry, DecomposedAppliedOnlyWhereLongRowsRun) {
  sim::KernelConfig cfg;
  cfg.decomposed = true;
  const auto applied = [](const CsrMatrix& m, const sim::KernelConfig& c) {
    return kernels::PreparedSpmv{m, kernels::SpmvOptions{.config = c, .threads = 4}}
        .decomposed_applied();
  };
  const CsrMatrix circuit = gen::circuit_like(30000, 3, 4, 25000, 325);
  EXPECT_TRUE(applied(circuit, cfg));
  EXPECT_FALSE(applied(circuit, sim::KernelConfig{}));
  // No stencil row is above the long-row threshold: the row plan runs.
  EXPECT_FALSE(applied(gen::stencil27(12, 12, 12), cfg));
  // Next to an applied delta, the delta row plan runs.
  sim::KernelConfig with_delta = cfg;
  with_delta.delta = true;
  ASSERT_TRUE(DeltaCsrMatrix::compress(circuit).has_value());
  EXPECT_FALSE(applied(circuit, with_delta));
}

TEST(Registry, PrefetchAppliedOnlyWhereCsrBodiesRun) {
  const auto applied = [](const CsrMatrix& m, const sim::KernelConfig& c) {
    return kernels::PreparedSpmv{m, kernels::SpmvOptions{.config = c, .threads = 4}}
        .prefetch_applied();
  };
  sim::KernelConfig pf;
  pf.prefetch = true;
  const CsrMatrix circuit = gen::circuit_like(30000, 3, 4, 25000, 326);
  EXPECT_TRUE(applied(circuit, pf));
  EXPECT_FALSE(applied(circuit, sim::KernelConfig{}));
  // The row bodies prefetch under every schedule and in the long-row phases.
  for (const auto schedule : {sim::Schedule::kStaticRows, sim::Schedule::kDynamicChunks}) {
    sim::KernelConfig scheduled = pf;
    scheduled.schedule = schedule;
    EXPECT_TRUE(applied(circuit, scheduled));
  }
  sim::KernelConfig split = pf;
  split.decomposed = true;
  EXPECT_TRUE(applied(circuit, split));
  // The delta body issues no prefetch; an incompressible delta config runs
  // the CSR bodies.
  sim::KernelConfig with_delta = pf;
  with_delta.delta = true;
  ASSERT_TRUE(DeltaCsrMatrix::compress(circuit).has_value());
  EXPECT_FALSE(applied(circuit, with_delta));
  CooMatrix wide{2, 200000};
  wide.add(0, 0, 1.0);
  wide.add(0, 199999, 2.0);
  wide.add(1, 5, 3.0);
  EXPECT_TRUE(applied(CsrMatrix::from_coo(wide), with_delta));
  // Nor do the symmetric kernels; a matrix that is not symmetric keeps the
  // CSR bodies.
  sim::KernelConfig sym = pf;
  sym.symmetric = true;
  EXPECT_FALSE(applied(gen::stencil27(12, 12, 12), sym));
  EXPECT_TRUE(applied(circuit, sym));
  // The P_ML bound runs the CSR bodies, the P_CMP bound its own.
  sim::KernelConfig bound = pf;
  bound.x_access = sim::XAccess::kRegularized;
  EXPECT_TRUE(applied(circuit, bound));
  bound.x_access = sim::XAccess::kUnitStride;
  EXPECT_FALSE(applied(circuit, bound));
}

TEST(Registry, RejectsNegativeThreads) {
  const CsrMatrix m = gen::diagonal(10);
  EXPECT_THROW(kernels::PreparedSpmv(m, kernels::SpmvOptions{.threads = -1}),
               std::invalid_argument);
  // threads = 0 means "all available" in the options API.
  EXPECT_GT(kernels::PreparedSpmv(m, kernels::SpmvOptions{}).threads(), 0);
}

TEST(Registry, StaticRowsScheduleSupported) {
  const CsrMatrix m = gen::banded(800, 50, 6, 323);
  sim::KernelConfig cfg;
  cfg.schedule = sim::Schedule::kStaticRows;
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = cfg, .threads = 4}};
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 324);
  aligned_vector<value_t> want(static_cast<std::size_t>(m.nrows()));
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  spmv_reference(m, x, want);
  prepared.run(x, y);
  expect_near(y, want, 1e-12);
}

}  // namespace
}  // namespace sparta
