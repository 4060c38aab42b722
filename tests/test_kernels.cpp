// Correctness tests for every real host kernel: each optimized variant,
// prepared as a kernels::PreparedSpmv plan, must reproduce the reference
// SpMV on a battery of matrix families at 1, 4 and 37 threads, and the
// registry must dispatch every KernelConfig the tuner can emit (all 15
// sweep sets x schedules).
#include <gtest/gtest.h>

#include <string>

#include "common/prng.hpp"
#include "gen/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/microbench_kernels.hpp"
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

// --- Micro-benchmark kernels ----------------------------------------------

TEST(MicrobenchKernels, RegularizedColindHasRowIndices) {
  const CsrMatrix m = gen::banded(200, 20, 6, 310);
  const auto colind = kernels::regularized_colind(m);
  ASSERT_EQ(colind.size(), static_cast<std::size_t>(m.nnz()));
  for (index_t i = 0; i < m.nrows(); ++i) {
    for (offset_t j = m.rowptr()[static_cast<std::size_t>(i)];
         j < m.rowptr()[static_cast<std::size_t>(i) + 1]; ++j) {
      EXPECT_EQ(colind[static_cast<std::size_t>(j)], i);
    }
  }
}

TEST(MicrobenchKernels, RegularizedKernelComputesRowScaledSums) {
  // With colind := i, y[i] = x[i] * sum(row values).
  const CsrMatrix m = gen::banded(300, 30, 7, 311);
  const auto colind = kernels::regularized_colind(m);
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 312);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  const auto parts = partition_balanced_nnz(m, 3);
  kernels::spmv_with_colind(m, colind, x, y, parts);
  for (index_t i = 0; i < m.nrows(); ++i) {
    value_t row_sum = 0.0;
    for (value_t v : m.row_vals(i)) row_sum += v;
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], row_sum * x[static_cast<std::size_t>(i)], 1e-10);
  }
}

TEST(MicrobenchKernels, CustomColindMatchesReferenceWhenUnmodified) {
  const CsrMatrix m = gen::random_uniform(400, 10, 313);
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 314);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  aligned_vector<value_t> want(static_cast<std::size_t>(m.nrows()));
  spmv_reference(m, x, want);
  const auto parts = partition_balanced_nnz(m, 4);
  kernels::spmv_with_colind(m, m.colind(), x, y, parts);
  expect_near(y, want, 1e-12);
}

TEST(MicrobenchKernels, UnitStrideKernelComputesRowScaledSums) {
  const CsrMatrix m = gen::banded(300, 30, 7, 315);
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 316);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  const auto parts = partition_balanced_nnz(m, 3);
  kernels::spmv_unit_stride(m, x, y, parts);
  for (index_t i = 0; i < m.nrows(); ++i) {
    value_t row_sum = 0.0;
    for (value_t v : m.row_vals(i)) row_sum += v;
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], row_sum * x[static_cast<std::size_t>(i)], 1e-10);
  }
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
