#include "tuner/host_profiler.hpp"

#include <omp.h>

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
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

/// What the bounds phase read besides PerfBounds, for the trace.
struct BoundsRecord {
  // Timed repetitions of each bound micro-benchmark.
  int reps_csr = 0;
  int reps_ml = 0;
  int reps_cmp = 0;
  ImbalanceReading imbalance;
  // The bandwidths P_MB and P_peak were computed from, the LLC size that
  // chose between them, and whether the caller supplied the reading.
  double roof_main_gbs = 0.0;
  double roof_llc_gbs = 0.0;
  std::size_t llc_bytes = 0;
  bool roof_override = false;
};

void require_iterations(const HostProfileOptions& options) {
  if (options.iterations < 1) {
    throw std::invalid_argument{"HostProfileOptions::iterations must be >= 1, got " +
                                std::to_string(options.iterations)};
  }
}

PerfBounds profile_bounds(const CsrMatrix& m, const HostProfileOptions& options,
                          BoundsRecord& record) {
  // One pair of operands for the three plans; the bound plans read x at the
  // row indices.
  aligned_vector<value_t> x(static_cast<std::size_t>(std::max(m.ncols(), m.nrows())), 1.0);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  const auto xv = kernels::ConstDenseBlockView::from_vector(x);
  const auto yv = kernels::DenseBlockView::from_vector(y);
  // Time one plan, prepared after the previous one is released (the P_ML
  // plan's colind is as large as the matrix's). Each repetition is one
  // region of plan.threads() threads in which every thread times its own
  // run_team call; returns the repetitions and, per timed repetition, each
  // thread's time.
  const auto time_bound = [&](kernels::XAccess access) {
    kernels::KernelConfig config;
    config.x_access = access;
    const kernels::PreparedSpmv plan{
        m, kernels::SpmvOptions{.config = config, .threads = std::max(options.threads, 0)}};
    const int nt = plan.threads();
    std::vector<double> call(static_cast<std::size_t>(nt), 0.0);
    std::vector<std::vector<double>> timed;
    bool warm = false;
    const Repetitions r = time_repetitions(
        [&] {
#pragma omp parallel default(none) shared(plan, xv, yv, call) num_threads(nt)
          {
            const double t0 = omp_get_wtime();
            (void)plan.run_team(xv, yv, 1.0, 0.0);
            call[static_cast<std::size_t>(omp_get_thread_num())] = omp_get_wtime() - t0;
          }
          if (warm) timed.push_back(call);
          warm = true;  // the first call is time_repetitions' warm-up
        },
        options.iterations);
    return std::pair{r, std::move(timed)};
  };

  PerfBounds b;

  // Baseline with per-thread timing: each thread's mean over the timed
  // repetitions for the trace, and P_IMB from the repetitions one by one.
  const auto [csr, timed] = time_bound(kernels::XAccess::kIndirect);
  record.reps_csr = csr.count;
  b.t_csr_seconds = csr.mean;
  b.p_csr = gflops(m, csr.mean);
  b.thread_seconds.assign(timed.front().size(), 0.0);
  for (const std::vector<double>& rep : timed) {
    for (std::size_t t = 0; t < rep.size(); ++t) b.thread_seconds[t] += rep[t];
  }
  for (double& t : b.thread_seconds) t /= csr.count;
  record.imbalance = read_imbalance(timed);
  b.p_imb = b.p_csr * record.imbalance.ratio;

  // P_ML: regularized column indices.
  const Repetitions ml = time_bound(kernels::XAccess::kRegularized).first;
  record.reps_ml = ml.count;
  b.p_ml = gflops(m, ml.best);

  // P_CMP: unit-stride x.
  const Repetitions cmp = time_bound(kernels::XAccess::kUnitStride).first;
  record.reps_cmp = cmp.count;
  b.p_cmp = gflops(m, cmp.best);

  // P_MB / P_peak from the process's host roof for this team size, or from
  // the caller's reading.
  record.roof_override = options.stream != nullptr;
  const StreamResult roof = record.roof_override ? *options.stream : host_roof(options.threads);
  MachineSpec host = host_machine(false);
  host.stream_main_gbs = roof.main_gbs;
  host.stream_llc_gbs = std::max(roof.llc_gbs, roof.main_gbs);
  record.roof_main_gbs = host.stream_main_gbs;
  record.roof_llc_gbs = host.stream_llc_gbs;
  record.llc_bytes = host.llc_bytes;
  b.p_mb = p_mb_bound(m, host);
  b.p_peak = p_peak_bound(m, host);
  return b;
}

}  // namespace

ImbalanceReading read_imbalance(std::span<const std::vector<double>> repetitions) {
  std::vector<double> ratios;
  ratios.reserve(repetitions.size());
  for (const std::vector<double>& times : repetitions) {
    const double slowest = stats::max(times);
    std::vector<double> busy;
    for (double t : times) {
      if (t > 1e-3 * slowest) busy.push_back(t);
    }
    const double median = stats::median(busy);
    ratios.push_back(median > 0.0 ? slowest / median : 1.0);
  }
  if (ratios.empty()) return {};
  return {stats::median(ratios), stats::min(ratios), stats::max(ratios)};
}

PerfBounds measure_bounds_host(const CsrMatrix& m, const HostProfileOptions& options) {
  require_iterations(options);
  BoundsRecord record;
  return profile_bounds(m, options, record);
}

OptimizationPlan tune_host(const CsrMatrix& m, const HostProfileOptions& options,
                           const ProfileThresholds& thresholds, const ImbPolicy& imb) {
  require_iterations(options);
  OptimizationPlan plan;
  plan.strategy = "profile-host";
  std::vector<obs::PhaseCost> phases;

  Timer preprocessing;
  PerfBounds bounds;
  BoundsRecord record;
  {
    const obs::ScopedPhase phase{phases, "bounds"};
    bounds = profile_bounds(m, options, record);
  }
  FeatureVector features;
  {
    const obs::ScopedPhase phase{phases, "features"};
    plan.classes = classify_profile(bounds, thresholds);
    features = extract_features(m);
    // Uneven rows are split before the rider and the one measurement, so
    // the plan measured is the plan returned (see host_profiler.hpp).
    plan.optimizations = select_host_optimizations(plan.classes, features, imb);
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
    t->extra.emplace_back("reps_csr", record.reps_csr);
    t->extra.emplace_back("reps_ml", record.reps_ml);
    t->extra.emplace_back("reps_cmp", record.reps_cmp);
    t->extra.emplace_back("reps_measure", measured.count);
    t->extra.emplace_back("symmetric_tried", symmetric_tried ? 1.0 : 0.0);
    t->extra.emplace_back("symmetric_applied", symmetric_applied ? 1.0 : 0.0);
    t->extra.emplace_back("symmetric_kept", plan.config.symmetric ? 1.0 : 0.0);
    t->extra.emplace_back("symmetric_mean_seconds", symmetric_mean);
    t->extra.emplace_back("uneven_rows", has_uneven_rows(features, imb) ? 1.0 : 0.0);
    t->extra.emplace_back("decomposed_applied", prepared->decomposed_applied() ? 1.0 : 0.0);
    t->extra.emplace_back("prefetch_applied", prepared->prefetch_applied() ? 1.0 : 0.0);
    t->extra.emplace_back("imb_ratio_min", record.imbalance.min);
    t->extra.emplace_back("imb_ratio_max", record.imbalance.max);
    t->extra.emplace_back("roof_main_gbs", record.roof_main_gbs);
    t->extra.emplace_back("roof_llc_gbs", record.roof_llc_gbs);
    t->extra.emplace_back("llc_bytes", static_cast<double>(record.llc_bytes));
    t->extra.emplace_back("roof_override", record.roof_override ? 1.0 : 0.0);
    plan.trace = std::move(t);
  }
  return plan;
}

}  // namespace sparta
