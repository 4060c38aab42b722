#include "tuner/host_profiler.hpp"

#include <omp.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/statistics.hpp"
#include "common/timer.hpp"
#include "kernels/kernel_registry.hpp"

namespace sparta {

namespace {

double gflops(const CsrMatrix& m, double seconds) {
  return seconds > 0.0 ? 2.0 * static_cast<double>(m.nnz()) / seconds * 1e-9 : 0.0;
}

/// Timed repetitions of each bound micro-benchmark, for the trace.
struct BoundRepetitions {
  int csr = 0;
  int ml = 0;
  int cmp = 0;
};

void require_iterations(const HostProfileOptions& options) {
  if (options.iterations < 1) {
    throw std::invalid_argument{"HostProfileOptions::iterations must be >= 1, got " +
                                std::to_string(options.iterations)};
  }
}

PerfBounds profile_bounds(const CsrMatrix& m, const HostProfileOptions& options,
                          BoundRepetitions& reps) {
  // One pair of operands for the three plans; the bound plans read x at the
  // row indices.
  aligned_vector<value_t> x(static_cast<std::size_t>(std::max(m.ncols(), m.nrows())), 1.0);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  const auto xv = kernels::ConstDenseBlockView::from_vector(x);
  const auto yv = kernels::DenseBlockView::from_vector(y);
  // Time one plan, prepared after the previous one is released (the P_ML
  // plan's colind is as large as the matrix's). Each repetition is one
  // region of plan.threads() threads in which every thread times its own
  // run_team call; returns the repetitions and each thread's mean time.
  const auto time_bound = [&](kernels::XAccess access) {
    kernels::KernelConfig config;
    config.x_access = access;
    const kernels::PreparedSpmv plan{
        m, kernels::SpmvOptions{.config = config, .threads = std::max(options.threads, 0)}};
    const int nt = plan.threads();
    std::vector<double> call(static_cast<std::size_t>(nt), 0.0);
    std::vector<double> mean(call.size(), 0.0);
    bool warm = false;
    const Repetitions r = time_repetitions(
        [&] {
#pragma omp parallel default(none) shared(plan, xv, yv, call) num_threads(nt)
          {
            const double t0 = omp_get_wtime();
            (void)plan.run_team(xv, yv, 1.0, 0.0);
            call[static_cast<std::size_t>(omp_get_thread_num())] = omp_get_wtime() - t0;
          }
          for (std::size_t i = 0; warm && i < call.size(); ++i) mean[i] += call[i];
          warm = true;  // the first call is time_repetitions' warm-up
        },
        options.iterations);
    for (double& t : mean) t /= r.count;
    return std::pair{r, std::move(mean)};
  };

  PerfBounds b;

  // Baseline with per-thread timing, averaged over the timed repetitions.
  Repetitions csr;
  std::tie(csr, b.thread_seconds) = time_bound(kernels::XAccess::kIndirect);
  reps.csr = csr.count;
  b.t_csr_seconds = csr.mean;
  b.p_csr = gflops(m, csr.mean);

  std::vector<double> busy;
  for (double t : b.thread_seconds) {
    if (t > 1e-3 * csr.mean) busy.push_back(t);
  }
  const double t_median = stats::median(busy.empty() ? b.thread_seconds : busy);
  b.p_imb = t_median > 0.0 ? gflops(m, t_median) : b.p_csr;

  // P_ML: regularized column indices.
  const Repetitions ml = time_bound(kernels::XAccess::kRegularized).first;
  reps.ml = ml.count;
  b.p_ml = gflops(m, ml.best);

  // P_CMP: unit-stride x.
  const Repetitions cmp = time_bound(kernels::XAccess::kUnitStride).first;
  reps.cmp = cmp.count;
  b.p_cmp = gflops(m, cmp.best);

  // P_MB / P_peak from the measured STREAM bandwidth.
  StreamResult probe;
  if (options.stream != nullptr) {
    probe = *options.stream;
  } else {
    probe = stream_triad_probe(3);
  }
  MachineSpec host = host_machine(false);
  host.stream_main_gbs = probe.main_gbs;
  host.stream_llc_gbs = std::max(probe.llc_gbs, probe.main_gbs);
  b.p_mb = p_mb_bound(m, host);
  b.p_peak = p_peak_bound(m, host);
  return b;
}

}  // namespace

PerfBounds measure_bounds_host(const CsrMatrix& m, const HostProfileOptions& options) {
  require_iterations(options);
  BoundRepetitions reps;
  return profile_bounds(m, options, reps);
}

OptimizationPlan tune_host(const CsrMatrix& m, const HostProfileOptions& options,
                           const ProfileThresholds& thresholds, const ImbPolicy& imb) {
  require_iterations(options);
  OptimizationPlan plan;
  plan.strategy = "profile-host";
  std::vector<obs::PhaseCost> phases;

  Timer preprocessing;
  PerfBounds bounds;
  BoundRepetitions reps;
  {
    const obs::ScopedPhase phase{phases, "bounds"};
    bounds = profile_bounds(m, options, reps);
  }
  FeatureVector features;
  {
    const obs::ScopedPhase phase{phases, "features"};
    plan.classes = classify_profile(bounds, thresholds);
    features = extract_features(m);
    plan.optimizations = select_optimizations(plan.classes, features, imb);
    plan.config = config_for(plan.optimizations);
  }

  // Prepare (format conversion etc.) and measure the optimized kernel, the
  // symmetric plan first where the rider applies (see host_profiler.hpp);
  // t_pre runs up to the last preparation.
  std::optional<kernels::PreparedSpmv> prepared;
  Repetitions measured;
  double prepare_seconds = 0.0;
  double measure_seconds = 0.0;
  const auto prepare_and_measure = [&](const kernels::KernelConfig& config) {
    const Timer prepare;
    prepared.emplace(m, kernels::SpmvOptions{.config = config,
                                             .threads = std::max(options.threads, 0)});
    prepare_seconds += prepare.seconds();
    plan.t_pre_seconds = preprocessing.seconds();
    const Timer measure;
    // Allocated after the preparation: allocating them first changed the
    // heap layout enough to raise the peak RSS of perfbench's power-law
    // SpMM sessions from 514 to 568 MB.
    aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()), 1.0);
    aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
    measured = time_repetitions([&] { prepared->run(x, y); }, options.iterations);
    measure_seconds += measure.seconds();
  };
  const bool symmetric_tried = m.nrows() == m.ncols() && plan.config.allows_symmetric();
  bool symmetric_applied = false;
  double symmetric_mean = 0.0;
  if (symmetric_tried) {
    kernels::KernelConfig config = plan.config;
    config.symmetric = true;
    prepare_and_measure(config);
    symmetric_applied = prepared->symmetric_applied();
    if (symmetric_applied) symmetric_mean = measured.mean;
  }
  plan.config.symmetric = symmetric_applied && symmetric_mean < bounds.t_csr_seconds;
  if (!prepared || prepared->symmetric_applied() != plan.config.symmetric) {
    prepare_and_measure(plan.config);
  }
  phases.push_back({"prepare", prepare_seconds * 1e6});
  phases.push_back({"measure", measure_seconds * 1e6});
  plan.t_spmv_seconds = measured.best;
  plan.gflops = plan.t_spmv_seconds > 0.0
                    ? 2.0 * static_cast<double>(m.nnz()) / plan.t_spmv_seconds * 1e-9
                    : 0.0;

  if (options.collect_trace) {
    auto t = std::make_shared<obs::TuneTrace>(plan_trace(
        plan, options.name, m.nrows(), m.nnz(), features, bounds, std::move(phases)));
    t->extra.emplace_back("prep_seconds", prepared->prep_seconds());
    t->extra.emplace_back("reps_csr", reps.csr);
    t->extra.emplace_back("reps_ml", reps.ml);
    t->extra.emplace_back("reps_cmp", reps.cmp);
    t->extra.emplace_back("reps_measure", measured.count);
    t->extra.emplace_back("symmetric_tried", symmetric_tried ? 1.0 : 0.0);
    t->extra.emplace_back("symmetric_applied", symmetric_applied ? 1.0 : 0.0);
    t->extra.emplace_back("symmetric_kept", plan.config.symmetric ? 1.0 : 0.0);
    t->extra.emplace_back("symmetric_mean_seconds", symmetric_mean);
    plan.trace = std::move(t);
  }
  return plan;
}

}  // namespace sparta
