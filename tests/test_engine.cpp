// Tests for the persistent-parallel solver execution engine (src/engine/)
// and the region-reentrant PreparedSpmv entry point it drives: run_team
// correctness against the serial reference, NUMA first-touch equivalence,
// partition and solver edge cases, adopting a prepared plan, agreement of
// the fused solvers with the serial reference solvers (reference_solvers.hpp)
// on the generator suite and on every plan (the engine runs the plan it is
// given), the per-product telemetry and its bounded series, NaN breakdown,
// every solver exit at several team sizes, and the determinism contract.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/validate.hpp"
#include "common/prng.hpp"
#include "engine/solver_engine.hpp"
#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "kernels/kernel_registry.hpp"
#include "obs/telemetry.hpp"
#include "reference_solvers.hpp"
#include "sparse/coo.hpp"
#include "sparse/partition.hpp"

namespace sparta {
namespace {

aligned_vector<value_t> random_vector(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  aligned_vector<value_t> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// A + A^T made strictly diagonally dominant: SPD, same structural family.
CsrMatrix spd_like(const CsrMatrix& a, std::uint64_t seed) {
  const CsrMatrix at = a.transpose();
  CooMatrix sym{a.nrows(), a.ncols()};
  for (index_t i = 0; i < a.nrows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) sym.add(i, cols[j], vals[j]);
    const auto tcols = at.row_cols(i);
    const auto tvals = at.row_vals(i);
    for (std::size_t j = 0; j < tcols.size(); ++j) sym.add(i, tcols[j], tvals[j]);
  }
  return gen::make_diagonally_dominant(CsrMatrix::from_coo(sym), seed);
}

/// Residual agreement, normalized by the initial-residual scale ||b||
/// (x0 = 0): comparing converged residuals to each other directly would be
/// dominated by reduction-order rounding noise once both are tiny.
double residual_rel_diff(double rf, double rr, std::span<const value_t> b) {
  return std::abs(rf - rr) / std::max(reference::norm2(b), 1e-300);
}

/// ||b - A x||, computed with the serial reference product.
double true_residual(const CsrMatrix& a, std::span<const value_t> x,
                     std::span<const value_t> b) {
  aligned_vector<value_t> r(b.size());
  spmv_reference(a, x, r);
  for (std::size_t i = 0; i < b.size(); ++i) r[i] = b[i] - r[i];
  return reference::norm2(r);
}

/// One thread, outside any parallel region, runs every part of the plan.
double run_serial(const kernels::PreparedSpmv& prepared, std::span<const value_t> x,
                  std::span<value_t> y, std::span<const value_t> w = {}) {
  return prepared.run_team(kernels::ConstDenseBlockView::from_vector(x),
                           kernels::DenseBlockView::from_vector(y), 1.0, 0.0, w);
}

TEST(RegionApi, RunTeamOutsideRegionMatchesReferenceAcrossConfigs) {
  const CsrMatrix a = gen::banded(500, 24, 7, 601);
  const auto x = random_vector(static_cast<std::size_t>(a.ncols()), 602);
  aligned_vector<value_t> expect(static_cast<std::size_t>(a.nrows()));
  spmv_reference(a, x, expect);

  std::vector<sim::KernelConfig> configs(8);
  configs[1].vectorized = true;
  configs[2].unrolled = true;
  configs[3].prefetch = true;
  configs[4].delta = true;
  configs[5].vectorized = true;
  configs[5].delta = true;
  configs[6].schedule = sim::Schedule::kDynamicChunks;
  configs[7].schedule = sim::Schedule::kStaticRows;

  for (const auto& cfg : configs) {
    for (const bool first_touch : {false, true}) {
      const kernels::PreparedSpmv prepared{
          a, kernels::SpmvOptions{.config = cfg, .threads = 4, .first_touch = first_touch}};
      ASSERT_EQ(prepared.region_parts().size(), 4u);
      aligned_vector<value_t> y(expect.size(), -1.0);
      EXPECT_EQ(run_serial(prepared, x, y), 0.0);
      for (std::size_t i = 0; i < expect.size(); ++i) {
        ASSERT_NEAR(y[i], expect[i], 1e-12 * (1.0 + std::abs(expect[i])));
      }
    }
  }
}

TEST(RegionApi, RunTeamFusesDot) {
  const CsrMatrix a = gen::random_uniform(300, 9, 603);
  const auto x = random_vector(static_cast<std::size_t>(a.ncols()), 604);
  const auto w = random_vector(static_cast<std::size_t>(a.nrows()), 605);
  aligned_vector<value_t> expect(static_cast<std::size_t>(a.nrows()));
  spmv_reference(a, x, expect);
  double expect_dot = 0.0;
  for (std::size_t i = 0; i < expect.size(); ++i) expect_dot += w[i] * expect[i];

  const kernels::PreparedSpmv prepared{
      a, kernels::SpmvOptions{.threads = 3, .first_touch = true}};
  aligned_vector<value_t> y(expect.size(), 0.0);
  const double dot = run_serial(prepared, x, y, w);
  EXPECT_NEAR(dot, expect_dot, 1e-9 * (1.0 + std::abs(expect_dot)));
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_NEAR(y[i], expect[i], 1e-12 * (1.0 + std::abs(expect[i])));
  }
}

TEST(RegionApi, SingleRowMatrixWithAllNnz) {
  // One row holding every nonzero; more parts than rows.
  const index_t ncols = 256;
  CooMatrix coo{1, ncols};
  Xoshiro256 rng{606};
  for (index_t j = 0; j < ncols; ++j) coo.add(0, j, rng.uniform(-1.0, 1.0));
  const CsrMatrix a = CsrMatrix::from_coo(coo);

  const auto x = random_vector(static_cast<std::size_t>(ncols), 607);
  aligned_vector<value_t> expect(1);
  spmv_reference(a, x, expect);

  const kernels::PreparedSpmv prepared{
      a, kernels::SpmvOptions{.threads = 4, .first_touch = true}};
  check::validate_partition(prepared.region_parts(), a.nrows());
  aligned_vector<value_t> y(1, 0.0);
  (void)run_serial(prepared, x, y);
  EXPECT_NEAR(y[0], expect[0], 1e-12 * (1.0 + std::abs(expect[0])));
}

TEST(Partitioning, MorePartsThanRowsStillCovers) {
  const CsrMatrix a = gen::stencil5(2, 2);  // 4 rows
  const auto parts = partition_balanced_nnz(a, 9);
  ASSERT_EQ(parts.size(), 9u);
  check::validate_partition(parts, a.nrows());
  offset_t covered = 0;
  for (const auto& r : parts) covered += range_nnz(a, r);
  EXPECT_EQ(covered, a.nnz());
}

TEST(Partitioning, EmptyMatrixPartitions) {
  const CsrMatrix a;  // 0 x 0
  const auto parts = partition_balanced_nnz(a, 4);
  ASSERT_EQ(parts.size(), 4u);
  for (const auto& r : parts) EXPECT_EQ(r.size(), 0);
}

TEST(EngineEdge, EmptyMatrixSolvesTrivially) {
  const CsrMatrix a;  // 0 x 0
  engine::EngineOptions opts;
  opts.threads = 3;
  const engine::SolverEngine eng{a, sim::KernelConfig{}, opts};
  aligned_vector<value_t> b, x;
  const auto rc = eng.cg(b, x);
  EXPECT_TRUE(rc.converged);
  EXPECT_EQ(rc.iterations, 0);
  const auto rb = eng.bicgstab(b, x);
  EXPECT_TRUE(rb.converged);
  EXPECT_EQ(rb.iterations, 0);
}

TEST(EngineEdge, MoreThreadsThanRows) {
  const CsrMatrix a = gen::stencil5(2, 2);  // 4 rows, SPD
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 608);
  engine::EngineOptions opts;
  opts.threads = 8;
  const engine::SolverEngine eng{a, sim::KernelConfig{}, opts};
  aligned_vector<value_t> x(b.size(), 0.0);
  const auto r = eng.cg(b, x);
  EXPECT_TRUE(r.converged);

  aligned_vector<value_t> x_ref(b.size(), 0.0);
  reference::cg(a, b, x_ref);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-8);
}

TEST(EngineEdge, ZeroRhsYieldsZeroSolution) {
  const CsrMatrix a = gen::stencil5(8, 8);
  const aligned_vector<value_t> b(static_cast<std::size_t>(a.nrows()), 0.0);
  const engine::SolverEngine eng{a};
  aligned_vector<value_t> x(b.size(), 0.0);
  const auto r = eng.cg(b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
  for (value_t v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(EngineEdge, RejectsShapeMismatch) {
  const CsrMatrix a = gen::stencil5(4, 4);
  const engine::SolverEngine eng{a};
  aligned_vector<value_t> b(5), x(16);
  EXPECT_THROW(eng.cg(b, x), std::invalid_argument);
  EXPECT_THROW(eng.bicgstab(b, x), std::invalid_argument);

  CooMatrix rect{4, 6};
  rect.add(0, 0, 1.0);
  const CsrMatrix ra = CsrMatrix::from_coo(rect);
  const engine::SolverEngine rect_eng{ra};
  aligned_vector<value_t> b2(4), x2(4);
  EXPECT_THROW(rect_eng.cg(b2, x2), std::invalid_argument);
  EXPECT_THROW(rect_eng.bicgstab(b2, x2), std::invalid_argument);
}

TEST(EngineEdge, RejectsBoundMicrobenchmarkPlans) {
  // A bound plan computes x[i] * (sum of row i), not A x.
  const CsrMatrix a = gen::stencil5(10, 10);
  for (const auto access : {sim::XAccess::kRegularized, sim::XAccess::kUnitStride}) {
    sim::KernelConfig cfg;
    cfg.x_access = access;
    EXPECT_THROW(engine::SolverEngine(a, cfg), std::invalid_argument) << cfg.describe();
    const auto plan = std::make_shared<const kernels::PreparedSpmv>(
        a, kernels::SpmvOptions{.config = cfg, .threads = 2});
    EXPECT_THROW(engine::SolverEngine(a, plan), std::invalid_argument) << cfg.describe();
  }
}

TEST(EngineEdge, RejectsNegativeMaxIterations) {
  const CsrMatrix a = gen::stencil5(10, 10);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 506);
  const bool saved = obs::enabled();
  for (const bool telemetry : {true, false}) {
    SCOPED_TRACE(telemetry ? "telemetry on" : "telemetry off");
    obs::set_enabled(telemetry);
    const engine::EngineOptions bad{.max_iterations = -1};
    EXPECT_THROW(engine::SolverEngine(a, sim::KernelConfig{}, bad), std::invalid_argument);
    EXPECT_THROW(
        engine::SolverEngine(a, std::make_shared<const kernels::PreparedSpmv>(a), bad),
        std::invalid_argument);
    // Zero is a valid cap: both methods return before the first iteration.
    const engine::SolverEngine eng{a, sim::KernelConfig{},
                                   engine::EngineOptions{.max_iterations = 0}};
    for (const bool cg : {true, false}) {
      SCOPED_TRACE(cg ? "cg" : "bicgstab");
      aligned_vector<value_t> x(b.size(), 0.0);
      const auto r = cg ? eng.cg(b, x) : eng.bicgstab(b, x);
      EXPECT_EQ(r.iterations, 0);
      EXPECT_FALSE(r.converged);
    }
  }
  obs::set_enabled(saved);
}

TEST(EngineEdge, MaxIterationsCapsWork) {
  const CsrMatrix a = gen::stencil5(30, 30);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 505);
  const engine::SolverEngine eng{a, sim::KernelConfig{},
                                 engine::EngineOptions{.max_iterations = 3}};
  for (const bool cg : {true, false}) {
    SCOPED_TRACE(cg ? "cg" : "bicgstab");
    aligned_vector<value_t> x(b.size(), 0.0);
    const auto r = cg ? eng.cg(b, x) : eng.bicgstab(b, x);
    EXPECT_FALSE(r.converged);
    EXPECT_LE(r.iterations, 3);
  }
}

TEST(EngineEdge, OneByOneSystem) {
  CooMatrix coo{1, 1};
  coo.add(0, 0, 4.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const engine::SolverEngine eng{a};
  const aligned_vector<value_t> b{8.0};
  for (const bool cg : {true, false}) {
    SCOPED_TRACE(cg ? "cg" : "bicgstab");
    aligned_vector<value_t> x{0.0};
    EXPECT_TRUE((cg ? eng.cg(b, x) : eng.bicgstab(b, x)).converged);
    EXPECT_NEAR(x[0], 2.0, 1e-10);
  }
}

TEST(EngineEdge, CgStartingAtSolution) {
  const CsrMatrix a = gen::stencil5(6, 6);
  aligned_vector<value_t> x_true(36, 1.0), b(36), x(36);
  spmv_reference(a, x_true, b);
  std::copy(x_true.begin(), x_true.end(), x.begin());
  const auto r = engine::SolverEngine{a}.cg(b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

// --- Adopting a prepared plan ---------------------------------------------

TEST(EngineAdopt, RunsTheAdoptedPlanAtItsThreadCount) {
  const CsrMatrix a = gen::stencil5(20, 20);  // SPD, so cg() below converges
  const auto prepared =
      std::make_shared<const kernels::PreparedSpmv>(a, kernels::SpmvOptions{.threads = 2});
  engine::EngineOptions opts;
  opts.threads = 3;
  const engine::SolverEngine eng{a, prepared, opts};
  EXPECT_EQ(&eng.prepared(), prepared.get());  // no re-preparation
  EXPECT_EQ(eng.threads(), 2);                 // the plan's thread count wins

  aligned_vector<value_t> b(static_cast<std::size_t>(a.nrows()), 1.0);
  aligned_vector<value_t> x(b.size(), 0.0);
  EXPECT_TRUE(eng.cg(b, x).converged);
}

TEST(EngineAdopt, RejectsNullAndPlansForAnotherShape) {
  const CsrMatrix a = gen::stencil5(10, 10);
  EXPECT_THROW(engine::SolverEngine(a, nullptr), std::invalid_argument);

  const CsrMatrix bigger = gen::stencil5(40, 40);
  EXPECT_THROW(
      engine::SolverEngine(a, std::make_shared<const kernels::PreparedSpmv>(bigger)),
      std::invalid_argument);

  // Same row count, more columns.
  CooMatrix coo{a.nrows(), a.ncols() + 20};
  for (index_t i = 0; i < a.nrows(); ++i) coo.add(i, i, 1.0);
  const CsrMatrix wider = CsrMatrix::from_coo(coo);
  EXPECT_THROW(engine::SolverEngine(a, std::make_shared<const kernels::PreparedSpmv>(wider)),
               std::invalid_argument);
}

TEST(Engine, FusedCgConvergesLikeReference) {
  const CsrMatrix a = gen::stencil5(20, 20);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 609);
  aligned_vector<value_t> x_fused(b.size(), 0.0), x_ref(b.size(), 0.0);

  engine::EngineOptions opts;
  opts.threads = 4;
  const engine::SolverEngine eng{a, sim::KernelConfig{}, opts};
  const auto rf = eng.cg(b, x_fused);
  const auto rr = reference::cg(a, b, x_ref, opts);

  EXPECT_TRUE(rf.converged);
  EXPECT_TRUE(rr.converged);
  EXPECT_EQ(rf.iterations, rr.iterations);
  EXPECT_LT(residual_rel_diff(rf.residual_norm, rr.residual_norm, b), 1e-10);
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_NEAR(x_fused[i], x_ref[i], 1e-10);
  EXPECT_LT(true_residual(a, x_fused, b), 1e-6);
  EXPECT_GE(rf.spmv_seconds, 0.0);
  EXPECT_LE(rf.spmv_seconds, rf.seconds + 1e-9);
}

TEST(Engine, FusedCgWithJacobiMatchesReference) {
  const CsrMatrix a = spd_like(gen::banded(300, 18, 6, 610), 611);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 612);
  aligned_vector<value_t> x_fused(b.size(), 0.0), x_ref(b.size(), 0.0);

  engine::EngineOptions opts;
  opts.threads = 4;
  opts.jacobi = true;
  const engine::SolverEngine eng{a, sim::KernelConfig{}, opts};
  const auto rf = eng.cg(b, x_fused);
  const auto rr = reference::cg(a, b, x_ref, opts);

  EXPECT_TRUE(rf.converged);
  EXPECT_TRUE(rr.converged);
  EXPECT_EQ(rf.iterations, rr.iterations);
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_NEAR(x_fused[i], x_ref[i], 1e-8);
  EXPECT_LT(true_residual(a, x_fused, b), 1e-5);
}

TEST(Engine, FusedBicgstabMatchesReference) {
  const CsrMatrix a =
      gen::make_diagonally_dominant(gen::random_uniform(300, 8, 613), 614);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 615);
  aligned_vector<value_t> x_fused(b.size(), 0.0), x_ref(b.size(), 0.0);

  engine::EngineOptions opts;
  opts.threads = 4;
  const engine::SolverEngine eng{a, sim::KernelConfig{}, opts};
  const auto rf = eng.bicgstab(b, x_fused);
  const auto rr = reference::bicgstab(a, b, x_ref, opts);

  EXPECT_TRUE(rf.converged);
  EXPECT_TRUE(rr.converged);
  EXPECT_EQ(rf.iterations, rr.iterations);
  EXPECT_LT(residual_rel_diff(rf.residual_norm, rr.residual_norm, b), 1e-10);
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_NEAR(x_fused[i], x_ref[i], 1e-8);
  EXPECT_LT(true_residual(a, x_fused, b), 1e-5);
  EXPECT_GE(rf.spmv_seconds, 0.0);
  EXPECT_LE(rf.spmv_seconds, rf.seconds + 1e-9);
}

TEST(Engine, FirstTouchTogglesAgree) {
  const CsrMatrix a = gen::stencil5(16, 16);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 616);

  engine::EngineOptions with_ft;
  with_ft.threads = 4;
  with_ft.first_touch = true;
  engine::EngineOptions without_ft = with_ft;
  without_ft.first_touch = false;

  aligned_vector<value_t> x1(b.size(), 0.0), x2(b.size(), 0.0);
  const engine::SolverEngine e1{a, sim::KernelConfig{}, with_ft};
  const engine::SolverEngine e2{a, sim::KernelConfig{}, without_ft};
  EXPECT_TRUE(e1.prepared().first_touch_applied());
  EXPECT_FALSE(e2.prepared().first_touch_applied());
  const auto r1 = e1.cg(b, x1);
  const auto r2 = e2.cg(b, x2);
  EXPECT_EQ(r1.iterations, r2.iterations);
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_DOUBLE_EQ(x1[i], x2[i]);
}

// The engine's acceptance bar: fused CG agrees with the reference CG on
// every suite analogue. A small fixed iteration count makes agreement a
// property of the fused arithmetic itself: a wrong fusion shows up as an
// O(1) error on iteration one, while legitimate reduction-order rounding
// needs many iterations of chaotic amplification (on ill-conditioned
// matrices like rajat30/FullChip analogues) before it can clear 1e-10.
TEST(EngineAgreement, FusedCgMatchesReferenceOnSuite) {
  std::uint64_t seed = 6500;
  for (const auto& spec : gen::suite_specs()) {
    const CsrMatrix a = spd_like(spec.make(), seed++);
    const auto b = random_vector(static_cast<std::size_t>(a.nrows()), seed++);
    aligned_vector<value_t> x_fused(b.size(), 0.0), x_ref(b.size(), 0.0);

    const engine::EngineOptions opts{.threads = 4, .max_iterations = 4, .tolerance = 0.0};
    const auto rr = reference::cg(a, b, x_ref, opts);
    const engine::SolverEngine eng{a, sim::KernelConfig{}, opts};
    const auto rf = eng.cg(b, x_fused);

    EXPECT_EQ(rf.iterations, rr.iterations) << spec.name;
    EXPECT_LT(residual_rel_diff(rf.residual_norm, rr.residual_norm, b), 1e-10) << spec.name;
  }
}

TEST(EngineAgreement, FusedBicgstabMatchesReferenceOnSuite) {
  std::uint64_t seed = 6600;
  for (const auto& spec : gen::suite_specs()) {
    const CsrMatrix a = gen::make_diagonally_dominant(spec.make(), seed++);
    const auto b = random_vector(static_cast<std::size_t>(a.nrows()), seed++);
    aligned_vector<value_t> x_fused(b.size(), 0.0), x_ref(b.size(), 0.0);

    const engine::EngineOptions opts{.threads = 4, .max_iterations = 3, .tolerance = 0.0};
    const auto rr = reference::bicgstab(a, b, x_ref, opts);
    const engine::SolverEngine eng{a, sim::KernelConfig{}, opts};
    const auto rf = eng.bicgstab(b, x_fused);

    EXPECT_EQ(rf.iterations, rr.iterations) << spec.name;
    EXPECT_LT(residual_rel_diff(rf.residual_norm, rr.residual_norm, b), 1e-10) << spec.name;
  }
}

// --- The engine runs the plan it is given ---------------------------------

/// Circuit-class matrix whose 4 dense rows of 1500 nonzeros exceed
/// kMinLongRow, so a decomposed plan has a long part.
CsrMatrix long_row_matrix() { return gen::circuit_like(1800, 3, 4, 1500, 305); }

/// The plans of the determinism contract (DESIGN.md §9), by name.
sim::KernelConfig plan_config(std::string_view name) {
  sim::KernelConfig cfg;
  cfg.vectorized = cfg.unrolled = cfg.prefetch = name == "csr+vec+unroll+pf";
  cfg.delta = name == "delta";
  cfg.decomposed = name == "decomposed";
  cfg.symmetric = name == "symmetric";
  if (name == "static-rows") cfg.schedule = sim::Schedule::kStaticRows;
  if (name == "dynamic") cfg.schedule = sim::Schedule::kDynamicChunks;
  return cfg;
}

constexpr const char* kPlans[] = {"baseline", "csr+vec+unroll+pf", "delta",    "static-rows",
                                  "dynamic",  "decomposed",        "symmetric"};

TEST(EnginePlans, SpmmMatchesRunBitwise) {
  const CsrMatrix general = long_row_matrix();
  const CsrMatrix stencil = gen::stencil5(40, 40);
  ASSERT_FALSE(long_rows(general).empty());
  for (const char* name : {"baseline", "delta", "static-rows", "dynamic", "decomposed",
                           "symmetric"}) {
    const bool sym = plan_config(name).symmetric;
    const CsrMatrix& a = sym ? stencil : general;
    const engine::SolverEngine eng{a, plan_config(name), engine::EngineOptions{.threads = 4}};
    EXPECT_EQ(eng.prepared().symmetric_applied(), sym) << name;
    const auto rows = static_cast<std::size_t>(a.nrows());
    const auto cols = static_cast<std::size_t>(a.ncols());
    for (const index_t k : {1, 4}) {
      SCOPED_TRACE(std::string{name} + " k=" + std::to_string(k));
      const auto kk = static_cast<std::size_t>(k);
      const auto xs = random_vector(cols * kk, 640 + kk);
      const kernels::ConstDenseBlockView xb{xs.data(), a.ncols(), k, k};
      aligned_vector<value_t> want(rows * kk), got(rows * kk);
      eng.prepared().run(xb, kernels::DenseBlockView{want.data(), a.nrows(), k, k});
      eng.spmm(xb, kernels::DenseBlockView{got.data(), a.nrows(), k, k});
      for (std::size_t i = 0; i < want.size(); ++i) ASSERT_EQ(got[i], want[i]) << "at " << i;
      for (std::size_t c = 0; c < kk; ++c) {
        aligned_vector<value_t> xc(cols), ref(rows);
        for (std::size_t r = 0; r < cols; ++r) xc[r] = xs[r * kk + c];
        spmv_reference(a, xc, ref);
        for (std::size_t r = 0; r < rows; ++r) {
          ASSERT_NEAR(got[r * kk + c], ref[r], 1e-10 * (1.0 + std::abs(ref[r])));
        }
      }
    }
  }
}

/// Engine CG (or BiCGSTAB) on `cfg` against the reference. After 4 (3)
/// steps with no stopping test the two agree in the suite agreement bar
/// above (same steps, residuals within 1e-10 of ||b||): a plan that
/// computed a wrong product would miss it by O(1). Solved to the default
/// tolerance, both converge to solutions within 1e-6 (the
/// symmetric-storage bar of test_sym): the plans' reassociated sums may
/// shift the stopping step.
void expect_matches_reference(const CsrMatrix& a, const sim::KernelConfig& cfg,
                              std::uint64_t seed, bool cg) {
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), seed);
  for (const bool converge : {false, true}) {
    SCOPED_TRACE(converge ? "to convergence" : "fixed steps");
    const engine::EngineOptions opts{.threads = 4,
                                     .max_iterations = converge ? 1000 : (cg ? 4 : 3),
                                     .tolerance = converge ? 1e-8 : 0.0};
    aligned_vector<value_t> x_fused(b.size(), 0.0), x_ref(b.size(), 0.0);
    const engine::SolverEngine eng{a, cfg, opts};
    const auto rf = cg ? eng.cg(b, x_fused) : eng.bicgstab(b, x_fused);
    const auto rr =
        cg ? reference::cg(a, b, x_ref, opts) : reference::bicgstab(a, b, x_ref, opts);
    if (converge) {
      EXPECT_TRUE(rf.converged);
      EXPECT_TRUE(rr.converged);
      for (std::size_t i = 0; i < b.size(); ++i) ASSERT_NEAR(x_fused[i], x_ref[i], 1e-6);
    } else {
      EXPECT_EQ(rf.iterations, rr.iterations);
      EXPECT_LT(residual_rel_diff(rf.residual_norm, rr.residual_norm, b), 1e-10);
    }
  }
}

TEST(EnginePlans, CgMatchesReferenceOnSymmetricAndDecomposedPlans) {
  const CsrMatrix spd = spd_like(long_row_matrix(), 650);
  ASSERT_FALSE(long_rows(spd).empty());
  ASSERT_TRUE(kernels::PreparedSpmv(spd, kernels::SpmvOptions{.config = plan_config("symmetric")})
                  .symmetric_applied());
  for (const char* name : {"symmetric", "decomposed"}) {
    SCOPED_TRACE(name);
    expect_matches_reference(spd, plan_config(name), 651, true);
  }
}

TEST(EnginePlans, BicgstabMatchesReferenceOnDecomposedDynamicAndSymmetricPlans) {
  const CsrMatrix general = gen::make_diagonally_dominant(long_row_matrix(), 653);
  ASSERT_FALSE(long_rows(general).empty());
  for (const char* name : {"decomposed", "dynamic"}) {
    SCOPED_TRACE(name);
    expect_matches_reference(general, plan_config(name), 654, false);
  }
  SCOPED_TRACE("symmetric");
  expect_matches_reference(spd_like(long_row_matrix(), 655), plan_config("symmetric"), 656, false);
}

// --- Telemetry: every product is counted once ------------------------------

/// Telemetry on for the scope, restored after it.
struct TelemetryOn {
  bool saved = obs::enabled();
  TelemetryOn() { obs::set_enabled(true); }
  ~TelemetryOn() { obs::set_enabled(saved); }
};

TEST(EngineTelemetry, CgCountsEveryProduct) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const TelemetryOn guard;
  const auto total = [](std::string_view name) {
    for (const auto& s : obs::Registry::global().snapshot()) {
      if (s.name == name) return s.value;
    }
    return 0.0;
  };
  const CsrMatrix a = gen::stencil5(20, 20);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 660);
  aligned_vector<value_t> x(b.size(), 0.0);
  // Handles bind at preparation, so the engine is built with telemetry on.
  const engine::SolverEngine eng{a, sim::KernelConfig{}, engine::EngineOptions{.threads = 4}};
  const double calls = total("kernels.run.calls");
  const double bytes = total("kernels.run.bytes");
  const auto r = eng.cg(b, x);
  ASSERT_TRUE(r.converged);
  const double products = r.iterations + 1.0;  // one per iteration + the initial residual
  EXPECT_EQ(total("kernels.run.calls") - calls, products);
  EXPECT_DOUBLE_EQ(total("kernels.run.bytes") - bytes, products * eng.prepared().bytes_per_run(1));
}

// --- Breakdown: a NaN never iterates ----------------------------------------

TEST(SolverBreakdown, NanRhsStopsEverySolver) {
  const CsrMatrix a = gen::stencil5(10, 10);
  auto b = random_vector(static_cast<std::size_t>(a.nrows()), 661);
  b[17] = std::numeric_limits<value_t>::quiet_NaN();
  const engine::SolverEngine eng{a, sim::KernelConfig{},
                                 engine::EngineOptions{.threads = 4, .max_iterations = 500}};
  const auto check = [&](const char* name, const solvers::SolveResult& r) {
    EXPECT_FALSE(r.converged) << name;
    EXPECT_EQ(r.iterations, 0) << name;
  };
  aligned_vector<value_t> x(b.size(), 0.0);
  check("engine cg", eng.cg(b, x));
  std::fill(x.begin(), x.end(), 0.0);
  check("engine bicgstab", eng.bicgstab(b, x));
}

// --- Every exit, at every team size -----------------------------------------

/// `pairs` copies of the 2x2 block {{d[0], d[1]}, {d[2], d[3]}} down the
/// diagonal; zero entries are not stored.
CsrMatrix block_diagonal(index_t pairs, std::array<value_t, 4> d) {
  CooMatrix coo{2 * pairs, 2 * pairs};
  for (index_t k = 0; k < 2 * pairs; k += 2) {
    for (std::size_t e = 0; e < d.size(); ++e) {
      const auto di = static_cast<index_t>(e / 2), dj = static_cast<index_t>(e % 2);
      if (d[e] != 0.0) coo.add(k + di, k + dj, d[e]);
    }
  }
  return CsrMatrix::from_coo(coo);
}

/// A system that leaves the solver loop through one exit, x0 = 0.
struct ExitCase {
  const char* name;
  bool cg;
  CsrMatrix a;
  aligned_vector<value_t> b;
  int max_iterations;
  int iterations;  // expected
  bool converged;  // expected
};

/// Every thread decides each exit on its own copy of the team's sums, so a
/// team whose threads disagreed would deadlock at its next barrier. Each
/// system below leaves through a different exit, at every team size, with
/// the reference's iteration count and verdict.
TEST(SolverExits, EveryExitMatchesReferenceAtEveryTeamSize) {
  const index_t pairs = 40;
  const auto n = static_cast<std::size_t>(2 * pairs);
  aligned_vector<value_t> one_half(n);
  for (std::size_t i = 0; i < n; ++i) one_half[i] = i % 2 == 0 ? 1.0 : 0.5;
  const CsrMatrix stencil = gen::stencil5(10, 10);
  const auto stencil_b = random_vector(static_cast<std::size_t>(stencil.nrows()), 680);

  std::vector<ExitCase> cases;
  // p·Ap = 0.75 n/2 at iteration 0, then negative: curvature breakdown.
  cases.push_back({"cg curvature", true, block_diagonal(pairs, {1.0, 0.0, 0.0, -1.0}),
                   one_half, 100, 1, false});
  // alpha = 1/2 makes s = r - alpha A r vanish to rounding: the half-step exit.
  cases.push_back({"bicgstab half step", false, block_diagonal(pairs, {2.0, 0.0, 0.0, 2.0}),
                   random_vector(n, 681), 100, 1, true});
  // r0 = b and v = A b are orthogonal for a skew-symmetric A.
  cases.push_back({"bicgstab r0·v = 0", false, block_diagonal(pairs, {0.0, 1.0, -1.0, 0.0}),
                   aligned_vector<value_t>(n, 1.0), 100, 0, false});
  for (const int cap : {0, 1}) {
    for (const bool cg : {true, false}) {
      cases.push_back({cg ? "cg capped" : "bicgstab capped", cg, stencil, stencil_b, cap, cap,
                       false});
    }
  }

  for (const ExitCase& c : cases) {
    for (const int threads : {1, 2, 3, 4, 7}) {
      SCOPED_TRACE(std::string{c.name} + " max_iterations=" + std::to_string(c.max_iterations) +
                   " at " + std::to_string(threads) + " threads");
      const engine::EngineOptions opts{.threads = threads, .max_iterations = c.max_iterations};
      aligned_vector<value_t> x_fused(c.b.size(), 0.0), x_ref(c.b.size(), 0.0);
      const engine::SolverEngine eng{c.a, sim::KernelConfig{}, opts};
      const auto rf = c.cg ? eng.cg(c.b, x_fused) : eng.bicgstab(c.b, x_fused);
      const auto rr = c.cg ? reference::cg(c.a, c.b, x_ref, opts)
                           : reference::bicgstab(c.a, c.b, x_ref, opts);
      EXPECT_EQ(rr.iterations, c.iterations);
      EXPECT_EQ(rr.converged, c.converged);
      EXPECT_EQ(rf.iterations, rr.iterations);
      EXPECT_EQ(rf.converged, rr.converged);
      EXPECT_LT(residual_rel_diff(rf.residual_norm, rr.residual_norm, c.b), 1e-10);
    }
  }
}

// --- The telemetry series are bounded ----------------------------------------

TEST(EngineTelemetry, SeriesStayWithinTheirLimit) {
  const TelemetryOn guard;
  const CsrMatrix a = gen::stencil5(20, 20);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 682);
  // A cap this large would preallocate 2 x 512 MiB of series if they were
  // sized to the cap.
  const engine::SolverEngine eng{
      a, sim::KernelConfig{}, engine::EngineOptions{.threads = 4, .max_iterations = 1 << 26}};
  constexpr auto kLimit = static_cast<std::size_t>(solvers::SolveResult::kSeriesLimit);
  for (const bool cg : {true, false}) {
    SCOPED_TRACE(cg ? "cg" : "bicgstab");
    aligned_vector<value_t> x(b.size(), 0.0);
    const auto r = cg ? eng.cg(b, x) : eng.bicgstab(b, x);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.residual_history.capacity(), kLimit);
    EXPECT_LE(r.iter_seconds.capacity(), kLimit);
    const auto recorded = obs::kCompiledIn ? static_cast<std::size_t>(r.iterations) : 0;
    EXPECT_EQ(r.residual_history.size(), recorded);
    EXPECT_EQ(r.iter_seconds.size(), recorded);
  }
}

// --- Determinism contract (DESIGN.md §9) -----------------------------------

/// At a fixed thread count every plan is bit-identical from run to run —
/// run() and two engine CG and BiCGSTAB solves each — and across thread
/// counts run() agrees with the reference to the kernel tolerance.
void expect_deterministic(const CsrMatrix& a, const char* name, int threads) {
  SCOPED_TRACE(std::string{name} + " at " + std::to_string(threads) + " threads");
  const auto prepared = std::make_shared<const kernels::PreparedSpmv>(
      a, kernels::SpmvOptions{.config = plan_config(name), .threads = threads});
  const auto n = static_cast<std::size_t>(a.nrows());
  const auto x = random_vector(n, 670);
  aligned_vector<value_t> y1(n), y2(n), want(n);
  prepared->run(std::span<const value_t>{x}, std::span<value_t>{y1});
  prepared->run(std::span<const value_t>{x}, std::span<value_t>{y2});
  spmv_reference(a, x, want);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(y1[i], y2[i]) << "run() differs at row " << i;
    ASSERT_NEAR(y1[i], want[i], 1e-10 * (1.0 + std::abs(want[i])));
  }

  const engine::SolverEngine eng{a, prepared, engine::EngineOptions{.tolerance = 1e-10}};
  const auto b = random_vector(n, 671);
  for (const bool cg : {true, false}) {
    aligned_vector<value_t> x1(n, 0.0), x2(n, 0.0);
    const auto r1 = cg ? eng.cg(b, x1) : eng.bicgstab(b, x1);
    const auto r2 = cg ? eng.cg(b, x2) : eng.bicgstab(b, x2);
    EXPECT_TRUE(r1.converged) << (cg ? "cg" : "bicgstab");
    ASSERT_EQ(r1.iterations, r2.iterations) << (cg ? "cg" : "bicgstab");
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(x1[i], x2[i]) << (cg ? "cg" : "bicgstab") << " differs at row " << i;
    }
  }
}

TEST(Determinism, EveryPlanIsBitIdenticalAtAFixedThreadCount) {
  const CsrMatrix a = spd_like(long_row_matrix(), 672);
  ASSERT_FALSE(long_rows(a).empty());
  ASSERT_TRUE(kernels::PreparedSpmv(a, kernels::SpmvOptions{.config = plan_config("symmetric")})
                  .symmetric_applied());
  for (const int threads : {1, 2, 3, 4, 7}) {
    for (const char* name : kPlans) expect_deterministic(a, name, threads);
  }
}

TEST(Determinism, MoreThreadsThanRows) {
  const CsrMatrix a = gen::stencil5(2, 2);  // 4 rows, SPD
  for (const char* name : kPlans) expect_deterministic(a, name, 7);
}

}  // namespace
}  // namespace sparta
