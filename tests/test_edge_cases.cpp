// Cross-module edge cases: degenerate shapes (empty, 1x1, single-row,
// single-column) pushed through formats, kernels, the simulator and the
// tuner; the solver engine's degenerate systems are in test_engine. These
// are the inputs that break real libraries.
#include <gtest/gtest.h>

#include "check/validate.hpp"
#include "gen/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "sparse/delta_csr.hpp"
#include "tuner/optimizer.hpp"

namespace sparta {
namespace {

CsrMatrix empty_matrix() {
  return CsrMatrix::from_coo(CooMatrix{0, 0});
}

CsrMatrix one_by_one(value_t v) {
  CooMatrix coo{1, 1};
  coo.add(0, 0, v);
  return CsrMatrix::from_coo(coo);
}

CsrMatrix single_long_row(index_t ncols) {
  CooMatrix coo{1, ncols};
  for (index_t c = 0; c < ncols; c += 2) coo.add(0, c, 1.0);
  return CsrMatrix::from_coo(coo);
}

TEST(EdgeCases, EmptyMatrixBasics) {
  const CsrMatrix m = empty_matrix();
  EXPECT_EQ(m.nrows(), 0);
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_EQ(m.transpose().nrows(), 0);
  aligned_vector<value_t> x, y;
  spmv_reference(m, x, y);  // no-op, must not crash
}

TEST(EdgeCases, EmptyMatrixThroughFormats) {
  const CsrMatrix m = empty_matrix();
  const auto d = DeltaCsrMatrix::compress(m);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->decompress(m), m);
}

TEST(EdgeCases, OneByOneEverywhere) {
  const CsrMatrix m = one_by_one(3.0);
  aligned_vector<value_t> x{2.0}, y{0.0};
  spmv_reference(m, x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);

  const kernels::PreparedSpmv spmv{m, kernels::SpmvOptions{.threads = 1}};
  y[0] = 0.0;
  spmv.run(x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);

  const auto r = sim::simulate_spmv(m, knc(), sim::KernelConfig{});
  EXPECT_GT(r.run.seconds, 0.0);
}

TEST(EdgeCases, SingleLongRowKernels) {
  const CsrMatrix m = single_long_row(10000);
  aligned_vector<value_t> x(10000, 1.0);
  aligned_vector<value_t> want(1), y(1);
  spmv_reference(m, x, want);

  for (const auto& combo : combined_optimization_sets()) {
    const kernels::PreparedSpmv spmv{
        m, kernels::SpmvOptions{.config = config_for(combo), .threads = 4}};
    y[0] = -1.0;
    spmv.run(x, y);
    EXPECT_NEAR(y[0], want[0], 1e-9) << to_string(combo);
  }
}

TEST(EdgeCases, OneDominantRowSimulation) {
  // 5000 two-element rows plus one 25000-element row: the dominant row
  // exceeds the default long-row threshold and must go cooperative.
  CooMatrix coo{5000, 50000};
  for (index_t i = 1; i < 5000; ++i) {
    coo.add(i, i, 1.0);
    coo.add(i, i + 10000, -1.0);
  }
  for (index_t c = 0; c < 50000; c += 2) coo.add(0, c, 1.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);

  sim::KernelConfig dec;
  dec.decomposed = true;
  const auto r = sim::simulate_spmv(m, knc(), dec);
  EXPECT_EQ(r.long_rows, 1);
  EXPECT_GT(r.run.gflops, 0.0);
  // Decomposition must beat a single thread grinding the row alone.
  const auto base = sim::simulate_spmv(m, knc(), sim::KernelConfig{});
  EXPECT_GT(r.run.gflops, base.run.gflops);
}

TEST(EdgeCases, SingleColumnMatrix) {
  CooMatrix coo{100, 1};
  for (index_t i = 0; i < 100; ++i) coo.add(i, 0, static_cast<value_t>(i));
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  aligned_vector<value_t> x{2.0};
  aligned_vector<value_t> y(100);
  spmv_reference(m, x, y);
  EXPECT_DOUBLE_EQ(y[99], 198.0);
  // Every column index is 0: maximal temporal locality, zero bandwidth
  // per row — the scatter feature must cope with bw = 0.
  const auto fv = extract_features(m);
  EXPECT_DOUBLE_EQ(fv[Feature::kBwMax], 0.0);
  EXPECT_DOUBLE_EQ(fv[Feature::kScatterAvg], 0.0);
}

TEST(EdgeCases, TunerOnTinyMatrix) {
  const CsrMatrix m = gen::diagonal(32);
  const Autotuner tuner{broadwell()};
  const auto e = tuner.evaluate("tiny", m);
  EXPECT_GT(e.bounds.p_csr, 0.0);
  const auto plan = tuner.plan(e);
  // Whatever is detected, the plan must be executable on the host.
  const kernels::PreparedSpmv spmv{m, kernels::SpmvOptions{.config = plan.config, .threads = 2}};
  aligned_vector<value_t> x(32, 1.0), y(32);
  spmv.run(x, y);
  for (value_t v : y) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(EdgeCases, AllRowsEmptyExceptOne) {
  CooMatrix coo{1000, 1000};
  coo.add(500, 499, 7.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto parts = partition_balanced_nnz(m, 8);
  check::validate_partition(parts, 1000);
  aligned_vector<value_t> x(1000, 1.0), y(1000, -1.0);
  kernels::PreparedSpmv{m, kernels::SpmvOptions{.threads = 8}}.run(x, y);
  EXPECT_DOUBLE_EQ(y[500], 7.0);
  EXPECT_DOUBLE_EQ(y[0], 0.0);  // empty rows must be zeroed, not stale
}

TEST(EdgeCases, GeneratorsDegenerateSizes) {
  EXPECT_EQ(gen::diagonal(1).nnz(), 1);
  EXPECT_EQ(gen::stencil5(1, 1).nnz(), 1);
  EXPECT_EQ(gen::banded(1, 5, 3, 903).nrows(), 1);
  EXPECT_EQ(gen::dense(1, 904).nnz(), 1);
  EXPECT_EQ(gen::block_diagonal(1, 8, 905).nnz(), 1);
  EXPECT_GE(gen::powerlaw(2, 1.5, 1, 906).nnz(), 2);
}

}  // namespace
}  // namespace sparta
