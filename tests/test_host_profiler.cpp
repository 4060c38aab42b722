// Tests for the host profiling path: real timed bounds, the per-thread
// baseline times, and end-to-end host tuning. These run real kernels on
// whatever machine executes the suite, so assertions stick to invariants
// that hold regardless of the hardware.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "check/validate_tuner.hpp"
#include "common/timer.hpp"
#include "gen/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "sparse/decomposed_csr.hpp"
#include "tuner/host_profiler.hpp"

namespace sparta {
namespace {

/// tune_host with the trace on, checked for what every returned plan owes:
/// a consistent plan whose trace names the config returned.
OptimizationPlan checked_tune(const CsrMatrix& m, HostProfileOptions opts,
                              const ProfileThresholds& thresholds = {}) {
  opts.collect_trace = true;
  auto plan = tune_host(m, opts, thresholds);
  EXPECT_NO_THROW(check::validate(plan));
  EXPECT_NE(plan.trace, nullptr);
  if (plan.trace) {
    EXPECT_EQ(plan.trace->config, plan.config.describe());
    // The plan measured last is the returned config's plan.
    const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = plan.config,
                                                                 .threads = opts.threads}};
    EXPECT_EQ(plan.trace->value_or_zero("prefetch_applied"),
              prepared.prefetch_applied() ? 1.0 : 0.0);
  }
  return plan;
}

/// Thresholds that keep the MB and IMB classes (delta, and the IMB arms)
/// out of the plan whatever this host measures.
ProfileThresholds no_mb_imb() {
  ProfileThresholds t;
  t.t_imb = 1e30;
  t.approx = 1e30;
  return t;
}

/// Timed repetitions tune_host recorded for each of its four kernels.
std::vector<double> repetition_counts(const OptimizationPlan& plan) {
  std::vector<double> counts;
  for (const char* name : {"reps_csr", "reps_ml", "reps_cmp", "reps_measure"}) {
    counts.push_back(plan.trace->value_or_zero(name));
  }
  return counts;
}

TEST(HostBounds, ThreadTimesCoverEveryThread) {
  const CsrMatrix m = gen::banded(4000, 100, 8, 801);
  HostProfileOptions opts;
  opts.threads = 4;
  opts.iterations = 3;
  const auto b = measure_bounds_host(m, opts);
  EXPECT_GT(b.t_csr_seconds, 0.0);
  ASSERT_EQ(b.thread_seconds.size(), 4u);
  for (double t : b.thread_seconds) {
    EXPECT_GE(t, 0.0);
    // A thread's busy time cannot exceed the region's by more than noise.
    EXPECT_LE(t, b.t_csr_seconds * 4.0 + 1e-3);
  }
}

TEST(HostBounds, InvariantsHold) {
  const CsrMatrix m = gen::banded(20000, 400, 10, 802);
  HostProfileOptions opts;
  opts.threads = 2;
  opts.iterations = 3;
  const auto b = measure_bounds_host(m, opts);
  EXPECT_GT(b.p_csr, 0.0);
  EXPECT_GT(b.p_ml, 0.0);
  EXPECT_GT(b.p_cmp, 0.0);
  EXPECT_GT(b.t_csr_seconds, 0.0);
  EXPECT_EQ(b.thread_seconds.size(), 2u);
  // Analytic roofs preserve their ordering regardless of measurement noise.
  EXPECT_GT(b.p_peak, b.p_mb);
  // The imbalance bound never falls meaningfully below the baseline.
  EXPECT_GE(b.p_imb, 0.5 * b.p_csr);
}

TEST(HostBounds, ReusesProvidedStreamProbe) {
  const CsrMatrix m = gen::banded(8000, 200, 8, 803);
  // Pin both bandwidth regimes to the same value so P_MB is exactly
  // determined by byte counts regardless of whether the working set is
  // classified as LLC-resident.
  StreamResult probe;
  probe.main_gbs = 10.0;
  probe.llc_gbs = 10.0;
  HostProfileOptions opts;
  opts.threads = 2;
  opts.iterations = 2;
  opts.stream = &probe;
  const auto b = measure_bounds_host(m, opts);
  // With a pinned 10 GB/s bandwidth, P_MB is exactly determined by bytes.
  const double xy = static_cast<double>(m.ncols() + m.nrows()) * sizeof(value_t);
  const double expect =
      2.0 * static_cast<double>(m.nnz()) /
      ((static_cast<double>(m.bytes()) + xy) / (10.0 * 1e9)) * 1e-9;
  EXPECT_NEAR(b.p_mb, expect, 1e-9);
}

TEST(HostTune, ReturnsExecutablePlanWithRealCosts) {
  const CsrMatrix m = gen::powerlaw(20000, 1.7, 500, 804);
  HostProfileOptions opts;
  opts.threads = 2;
  opts.iterations = 3;
  const auto plan = checked_tune(m, opts);
  EXPECT_EQ(plan.strategy, "profile-host");
  EXPECT_GT(plan.gflops, 0.0);
  EXPECT_GT(plan.t_spmv_seconds, 0.0);
  EXPECT_GT(plan.t_pre_seconds, 0.0);
  // Each optimization answers a detected class, except the structural
  // long-row split of uneven rows where delta was not selected.
  const bool split = has_uneven_rows(extract_features(m)) &&
                     !plan.classes.contains(Bottleneck::kMB);
  for (Optimization o : plan.optimizations) {
    EXPECT_TRUE(plan.classes.contains(target_class(o)) ||
                (o == Optimization::kDecompose && split))
        << to_string(o);
  }
}

TEST(HostTune, EmptyClassSetKeepsBaselineConfig) {
  // A tiny diagonal matrix has no meaningful headroom anywhere; whatever the
  // classifier decides, the returned config must be runnable.
  const CsrMatrix m = gen::diagonal(5000);
  HostProfileOptions opts;
  opts.threads = 2;
  opts.iterations = 2;
  const auto plan = checked_tune(m, opts);
  EXPECT_GT(plan.gflops, 0.0);
}

TEST(HostTune, SplitsCircuitRowsWithoutTheImbClass) {
  // nnz_max / nnz_avg in the thousands: the long rows are split although
  // the thresholds keep IMB out of the classes.
  const CsrMatrix m =
      gen::make_diagonally_dominant(gen::circuit_like(30000, 3, 4, 25000, 810), 811);
  HostProfileOptions opts;
  opts.threads = 2;
  opts.iterations = 3;
  const auto plan = checked_tune(m, opts, no_mb_imb());
  EXPECT_FALSE(plan.classes.contains(Bottleneck::kIMB));
  EXPECT_TRUE(plan.config.decomposed) << plan.config.describe();
  ASSERT_NE(plan.trace, nullptr);
  EXPECT_EQ(plan.trace->value_or_zero("uneven_rows"), 1.0);
  EXPECT_EQ(plan.trace->value_or_zero("decomposed_applied"), 1.0);
  EXPECT_EQ(plan.trace->value_or_zero("symmetric_tried"), 0.0);
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = plan.config,
                                                               .threads = 2}};
  EXPECT_TRUE(prepared.decomposed_applied());
}

TEST(HostTune, LeavesPowerLawHubsUnsplit) {
  // Rows above the long-row threshold, but a ratio below ImbPolicy's: the
  // ratio test, not the threshold, decides the split.
  const CsrMatrix m = gen::powerlaw(20000, 1.8, 2000, 812);
  ASSERT_FALSE(DecomposedCsrMatrix::decompose(m).long_rows().empty());
  ASSERT_FALSE(has_uneven_rows(extract_features(m)));
  HostProfileOptions opts;
  opts.threads = 2;
  opts.iterations = 3;
  const auto plan = checked_tune(m, opts, no_mb_imb());
  EXPECT_FALSE(plan.config.decomposed) << plan.config.describe();
  ASSERT_NE(plan.trace, nullptr);
  EXPECT_EQ(plan.trace->value_or_zero("uneven_rows"), 0.0);
  EXPECT_EQ(plan.trace->value_or_zero("decomposed_applied"), 0.0);
}

TEST(HostTune, TracesTheAppliedPrefetch) {
  // T_ML = 0 puts ML in every class set, so the plan asks for a prefetch;
  // on a matrix that is not symmetric, with MB kept out, the CSR bodies
  // run it.
  const CsrMatrix m = gen::powerlaw(20000, 1.8, 300, 813);
  HostProfileOptions opts;
  opts.threads = 2;
  opts.iterations = 3;
  ProfileThresholds t = no_mb_imb();
  t.t_ml = 0.0;
  const auto plan = checked_tune(m, opts, t);
  EXPECT_TRUE(plan.classes.contains(Bottleneck::kML));
  EXPECT_TRUE(plan.config.prefetch) << plan.config.describe();
  ASSERT_NE(plan.trace, nullptr);
  EXPECT_EQ(plan.trace->value_or_zero("prefetch_applied"), 1.0);
}

TEST(HostProfile, RejectsNonPositiveIterations) {
  const CsrMatrix m = gen::banded(500, 10, 4, 805);
  HostProfileOptions opts;
  opts.threads = 2;
  for (int bad : {0, -1}) {
    opts.iterations = bad;
    EXPECT_THROW(measure_bounds_host(m, opts), std::invalid_argument);
    try {
      tune_host(m, opts);
      ADD_FAILURE() << "tune_host accepted iterations = " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("iterations"), std::string::npos) << e.what();
    }
  }
}

TEST(HostTune, SmallMatrixRunsEveryIteration) {
  // One SpMV here is far below the time budget, so the iteration cap decides:
  // every kernel runs exactly `iterations` timed repetitions.
  const CsrMatrix m = gen::banded(2000, 40, 6, 806);
  HostProfileOptions opts;
  opts.threads = 2;
  opts.iterations = 5;
  const auto plan = checked_tune(m, opts);
  ASSERT_NE(plan.trace, nullptr);
  for (double n : repetition_counts(plan)) EXPECT_EQ(n, 5.0);
}

TEST(HostTune, TimeBudgetBoundsRepetitions) {
  // About 0.1-1 ms per SpMV: 100000 repetitions would take minutes per
  // kernel, and the time budget stops each kernel well before that.
  const CsrMatrix m = gen::banded(100000, 64, 8, 807);
  HostProfileOptions opts;
  opts.threads = 2;
  opts.iterations = 100000;
  const Timer t;
  const auto plan = checked_tune(m, opts);
  const double seconds = t.seconds();
  ASSERT_NE(plan.trace, nullptr);
  for (double n : repetition_counts(plan)) {
    EXPECT_GE(n, 3.0);
    EXPECT_LT(n, 100000.0);
  }
  EXPECT_LT(seconds, 30.0);
}

/// Tune `m` at 2 threads with the trace on. The thresholds keep the MB and
/// IMB classes out of the plan, and none of these matrices has uneven rows,
/// so the symmetric rider's config gate opens whatever this host measures.
OptimizationPlan traced_tune(const CsrMatrix& m) {
  HostProfileOptions opts;
  opts.threads = 2;
  opts.iterations = 4;
  auto plan = checked_tune(m, opts, no_mb_imb());
  EXPECT_TRUE(plan.config.allows_symmetric()) << plan.config.describe();
  return plan;
}

TEST(HostTune, SymmetricRiderAppliesOnSpdStencil) {
  const CsrMatrix m = gen::stencil27(48, 48, 48);
  const auto plan = traced_tune(m);
  ASSERT_NE(plan.trace, nullptr);
  EXPECT_EQ(plan.trace->value_or_zero("symmetric_tried"), 1.0);
  EXPECT_EQ(plan.trace->value_or_zero("symmetric_applied"), 1.0);
  EXPECT_GT(plan.trace->value_or_zero("symmetric_mean_seconds"), 0.0);
  // Whether the symmetric plan is kept depends on this host's timings; the
  // returned config must say which plan was measured, and prepare to it.
  const bool kept = plan.trace->value_or_zero("symmetric_kept") == 1.0;
  EXPECT_EQ(plan.config.symmetric, kept);
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = plan.config,
                                                               .threads = 2}};
  EXPECT_EQ(prepared.symmetric_applied(), plan.config.symmetric);
}

TEST(HostTune, SymmetricRiderRejectsAsymmetricSquareMatrix) {
  const auto plan = traced_tune(gen::powerlaw(20000, 1.7, 500, 808));
  ASSERT_NE(plan.trace, nullptr);
  EXPECT_EQ(plan.trace->value_or_zero("symmetric_tried"), 1.0);
  EXPECT_EQ(plan.trace->value_or_zero("symmetric_applied"), 0.0);
  EXPECT_EQ(plan.trace->value_or_zero("symmetric_kept"), 0.0);
  EXPECT_FALSE(plan.config.symmetric);
}

TEST(HostTune, SymmetricRiderSkipsRectangularMatrix) {
  const CsrMatrix m = gen::banded(4000, 40, 6, 809).slice_rows(0, 3000);
  ASSERT_NE(m.nrows(), m.ncols());
  const auto plan = traced_tune(m);
  ASSERT_NE(plan.trace, nullptr);
  EXPECT_EQ(plan.trace->value_or_zero("symmetric_tried"), 0.0);
  EXPECT_EQ(plan.trace->value_or_zero("symmetric_applied"), 0.0);
  EXPECT_FALSE(plan.config.symmetric);
}

}  // namespace
}  // namespace sparta
