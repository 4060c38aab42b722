#include "tuner/optimizer.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/contract.hpp"
#include "check/validate_tuner.hpp"
#include "sparse/properties.hpp"

namespace sparta {

std::vector<obs::NamedValue> named_features(const FeatureVector& fv) {
  std::vector<obs::NamedValue> out;
  out.reserve(kNumFeatures);
  for (int i = 0; i < kNumFeatures; ++i) {
    const auto f = static_cast<Feature>(i);
    out.emplace_back(std::string{feature_name(f)}, fv[f]);
  }
  return out;
}

std::vector<obs::NamedValue> named_bounds(const PerfBounds& b) {
  std::vector<obs::NamedValue> out{
      {"P_CSR", b.p_csr},   {"P_MB", b.p_mb},     {"P_ML", b.p_ml},
      {"P_IMB", b.p_imb},   {"P_CMP", b.p_cmp},   {"P_peak", b.p_peak},
      {"t_csr_seconds", b.t_csr_seconds},
  };
  if (b.p_csr > 0.0) {
    // The ratios the Fig. 4 rules actually compare against the thresholds.
    out.emplace_back("P_MB/P_CSR", b.p_mb / b.p_csr);
    out.emplace_back("P_ML/P_CSR", b.p_ml / b.p_csr);
    out.emplace_back("P_IMB/P_CSR", b.p_imb / b.p_csr);
    out.emplace_back("P_CMP/P_CSR", b.p_cmp / b.p_csr);
  }
  return out;
}

std::vector<std::string> named_classes(BottleneckSet s) {
  std::vector<std::string> out;
  for (int i = 0; i < kNumBottlenecks; ++i) {
    const auto b = static_cast<Bottleneck>(i);
    if (s.contains(b)) out.push_back(to_string(b));
  }
  return out;
}

obs::TuneTrace plan_trace(const OptimizationPlan& plan, std::string matrix, index_t nrows,
                          offset_t nnz, const FeatureVector& features, const PerfBounds& bounds,
                          std::vector<obs::PhaseCost> phases) {
  obs::TuneTrace t;
  t.matrix = std::move(matrix);
  t.strategy = plan.strategy;
  t.nrows = nrows;
  t.nnz = nnz;
  t.features = named_features(features);
  t.bounds = named_bounds(bounds);
  t.classes = named_classes(plan.classes);
  t.class_mask = plan.classes.mask();
  t.optimizations.reserve(plan.optimizations.size());
  for (Optimization o : plan.optimizations) t.optimizations.push_back(to_string(o));
  t.config = plan.config.describe();
  t.gflops = plan.gflops;
  t.t_spmv_seconds = plan.t_spmv_seconds;
  t.t_pre_seconds = plan.t_pre_seconds;
  t.phases = std::move(phases);
  return t;
}

std::string to_string(TunePolicy policy) {
  switch (policy) {
    case TunePolicy::kProfile:
      return "profile";
    case TunePolicy::kFeature:
      return "feature";
    case TunePolicy::kOracle:
      return "oracle";
    case TunePolicy::kTrivialSingle:
      return "trivial-single";
    case TunePolicy::kTrivialCombined:
      return "trivial-combined";
  }
  return "?";
}

Autotuner::Autotuner(MachineSpec machine, ProfileThresholds thresholds, CostModelParams cost,
                     ImbPolicy imb)
    : machine_(std::move(machine)), thresholds_(thresholds), cost_(cost), imb_(imb) {}

FeatureExtractionConfig Autotuner::extraction_config() const {
  return {machine_.llc_bytes, machine_.values_per_line()};
}

double Autotuner::Evaluation::gflops_for(const sim::KernelConfig& cfg) const {
  for (const auto& [c, g] : perf) {
    if (c == cfg) return g;
  }
  throw std::out_of_range{"Evaluation: config '" + cfg.describe() + "' was not simulated"};
}

double Autotuner::Evaluation::seconds_at(double gflops) const {
  return gflops > 0.0 ? 2.0 * static_cast<double>(nnz) / gflops * 1e-9 : 0.0;
}

double Autotuner::simulate_gflops(const CsrMatrix& m, const sim::KernelConfig& cfg) const {
  return sim::simulate_spmv(m, machine_, cfg).run.gflops;
}

Autotuner::Evaluation Autotuner::evaluate(const std::string& name, const CsrMatrix& m) const {
  Evaluation e;
  e.name = name;
  e.nrows = m.nrows();
  e.nnz = m.nnz();
  e.symmetric = m.nrows() == m.ncols() && is_symmetric(m);
  {
    const obs::ScopedPhase phase{e.phases, "bounds"};
    e.bounds = measure_bounds(m, machine_);
  }
  {
    const obs::ScopedPhase phase{e.phases, "features"};
    e.features = extract_features(m, extraction_config());
  }
  {
    const obs::ScopedPhase phase{e.phases, "simulate"};

    auto rate_of = [&](const sim::KernelConfig& cfg) {
      for (const auto& [c, g] : e.perf) {
        if (c == cfg) return g;
      }
      const double g = simulate_gflops(m, cfg);
      e.perf.emplace_back(cfg, g);
      return g;
    };

    // Baseline is part of the cache too (mask 0 / empty sweep entry).
    rate_of(sim::baseline_config());

    // All 15 sweep candidates.
    const auto& combos = combined_optimization_sets();
    e.combo_gflops.reserve(combos.size());
    for (const auto& combo : combos) {
      e.combo_gflops.push_back(rate_of(config_for(combo)));
    }

    // Every class-mask selection the classifiers could emit.
    for (std::uint32_t mask = 0; mask < 16; ++mask) {
      const auto classes = BottleneckSet::from_mask(mask);
      const auto ops = select_optimizations(classes, e.features, imb_);
      e.class_mask_gflops[mask] = rate_of(config_for(ops));
    }
  }
  auto& reg = obs::Registry::global();
  reg.counter("tuner.evaluate.calls").add();
  double total_micros = 0.0;
  for (const auto& p : e.phases) total_micros += p.micros;
  reg.histogram("tuner.evaluate.micros").record(total_micros);
  return e;
}

double Autotuner::setup_seconds(const std::vector<Optimization>& ops, double t_csr) const {
  // Conversion work runs through the parallel inspector pipeline and is
  // divided by its modeled speedup; the fixed JIT cost is serial codegen.
  double conversion = 0.0;
  bool codegen = false;
  for (Optimization o : ops) {
    switch (o) {
      case Optimization::kDeltaVec:
        conversion += cost_.delta_setup_spmv * t_csr;
        codegen = true;
        break;
      case Optimization::kPrefetch:
        codegen = true;
        break;
      case Optimization::kDecompose:
        conversion += cost_.decompose_setup_spmv * t_csr;
        break;
      case Optimization::kAutoSched:
        conversion += cost_.autosched_setup_spmv * t_csr;
        break;
      case Optimization::kUnrollVec:
        codegen = true;
        break;
    }
  }
  if (codegen) conversion += cost_.codegen_setup_spmv * t_csr;
  double sec = conversion / cost_.inspector_speedup();
  if (codegen) sec += cost_.jit_fixed_seconds;
  return sec;
}

OptimizationPlan Autotuner::plan_from_classes(const Evaluation& e, BottleneckSet classes,
                                              std::string strategy,
                                              double selection_seconds) const {
  OptimizationPlan plan;
  plan.strategy = std::move(strategy);
  plan.classes = classes;
  plan.optimizations = select_optimizations(classes, e.features, imb_);
  plan.config = config_for(plan.optimizations);
  plan.gflops = e.class_mask_gflops[classes.mask()];
  plan.t_spmv_seconds = e.seconds_at(plan.gflops);
  plan.t_pre_seconds = selection_seconds + setup_seconds(plan.optimizations, e.bounds.t_csr_seconds);
  return plan;
}

OptimizationPlan Autotuner::plan_profile_impl(const Evaluation& e) const {
  const auto classes = classify_profile(e.bounds, thresholds_);
  // Selection cost: the profiling phase times the baseline and the two
  // micro-benchmarks, timing_iters runs each (P_MB/P_peak are analytic and
  // P_IMB falls out of the baseline run — paper §III-B).
  const double t_ml_bench = e.seconds_at(e.bounds.p_ml);
  const double t_cmp_bench = e.seconds_at(e.bounds.p_cmp);
  const double selection =
      cost_.timing_iters * (e.bounds.t_csr_seconds + t_ml_bench + t_cmp_bench);
  return plan_from_classes(e, classes, "profile", selection);
}

OptimizationPlan Autotuner::plan_feature_impl(const Evaluation& e,
                                              const FeatureClassifier& fc) const {
  const auto classes = fc.classify(e.features);
  // Selection cost: feature extraction (tree query is O(log n), negligible).
  const bool needs_nnz_pass =
      std::any_of(fc.config().subset.begin(), fc.config().subset.end(), [](Feature f) {
        return f == Feature::kClusteringAvg || f == Feature::kMissesAvg;
      });
  const double selection = (needs_nnz_pass ? cost_.feat_extract_full_spmv
                                           : cost_.feat_extract_linear_spmv) *
                           e.bounds.t_csr_seconds / cost_.inspector_speedup();
  return plan_from_classes(e, classes, "feature", selection);
}

OptimizationPlan Autotuner::plan_oracle_impl(const Evaluation& e) const {
  OptimizationPlan plan;
  plan.strategy = "oracle";
  plan.gflops = e.bounds.p_csr;
  plan.config = sim::baseline_config();
  const auto& combos = combined_optimization_sets();
  for (std::size_t i = 0; i < combos.size(); ++i) {
    if (e.combo_gflops[i] > plan.gflops) {
      plan.gflops = e.combo_gflops[i];
      plan.optimizations = combos[i];
      plan.config = config_for(combos[i]);
    }
  }
  plan.t_spmv_seconds = e.seconds_at(plan.gflops);
  plan.t_pre_seconds = 0.0;  // the oracle is a hypothetical upper bound
  return plan;
}

OptimizationPlan Autotuner::plan_trivial_impl(const Evaluation& e, bool combined) const {
  OptimizationPlan plan;
  plan.strategy = combined ? "trivial-combined" : "trivial-single";
  plan.gflops = e.bounds.p_csr;
  plan.config = sim::baseline_config();
  const auto& combos = combined_optimization_sets();
  const std::size_t limit = combined ? combos.size() : single_optimization_sets().size();
  double sweep_seconds = 0.0;
  for (std::size_t i = 0; i < limit; ++i) {
    // Pay for this trial: setup + timed runs of the candidate.
    sweep_seconds += setup_seconds(combos[i], e.bounds.t_csr_seconds) +
                     cost_.timing_iters * e.seconds_at(e.combo_gflops[i]);
    if (e.combo_gflops[i] > plan.gflops) {
      plan.gflops = e.combo_gflops[i];
      plan.optimizations = combos[i];
      plan.config = config_for(combos[i]);
    }
  }
  plan.t_spmv_seconds = e.seconds_at(plan.gflops);
  plan.t_pre_seconds = sweep_seconds;
  return plan;
}

OptimizationPlan Autotuner::plan(const Evaluation& e, const TuneOptions& opts) const {
  std::vector<obs::PhaseCost> plan_phases;
  OptimizationPlan p;
  {
    const obs::ScopedPhase phase{plan_phases, "plan"};
    switch (opts.policy) {
      case TunePolicy::kProfile:
        p = plan_profile_impl(e);
        break;
      case TunePolicy::kFeature:
        if (opts.classifier == nullptr) {
          throw std::invalid_argument{
              "Autotuner::plan: TunePolicy::kFeature requires TuneOptions::classifier"};
        }
        p = plan_feature_impl(e, *opts.classifier);
        break;
      case TunePolicy::kOracle:
        p = plan_oracle_impl(e);
        break;
      case TunePolicy::kTrivialSingle:
        p = plan_trivial_impl(e, /*combined=*/false);
        break;
      case TunePolicy::kTrivialCombined:
        p = plan_trivial_impl(e, /*combined=*/true);
        break;
    }
    // Symmetric-storage rider: an exactly symmetric matrix runs its plan on
    // lower-triangle+diagonal storage whenever the selected config allows it
    // (KernelConfig::allows_symmetric). The reported rate is left at the
    // simulated general-kernel value — conservative, since the halved matrix
    // stream only helps — but the storage build is charged to t_pre like any
    // other conversion (the oracle stays a zero-overhead hypothetical).
    if (e.symmetric && p.config.allows_symmetric()) {
      p.config.symmetric = true;
      if (p.strategy != "oracle") {
        p.t_pre_seconds +=
            cost_.sym_setup_spmv * e.bounds.t_csr_seconds / cost_.inspector_speedup();
      }
    }
  }
  auto& reg = obs::Registry::global();
  reg.counter("tuner.plan.calls").add();
  reg.counter("tuner.plan." + p.strategy).add();
  if (opts.collect_trace) {
    std::vector<obs::PhaseCost> phases = e.phases;
    phases.insert(phases.end(), plan_phases.begin(), plan_phases.end());
    p.trace = std::make_shared<const obs::TuneTrace>(plan_trace(
        p, opts.name.empty() ? e.name : opts.name, e.nrows, e.nnz, e.features, e.bounds,
        std::move(phases)));
  }
  // Decision-consistency contract: the composed config must match the
  // optimization list, and the timing-model outputs must be sane.
  SPARTA_CHECK_STRUCTURE(p);
  return p;
}

OptimizationPlan Autotuner::tune(const CsrMatrix& m, const TuneOptions& opts) const {
  return plan(evaluate(opts.name, m), opts);
}

TrainingSample Autotuner::label(const Evaluation& e) const {
  return {e.features, classify_profile(e.bounds, thresholds_)};
}

TrainingSample Autotuner::label(const CsrMatrix& m) const {
  TrainingSample s;
  s.features = extract_features(m, extraction_config());
  s.labels = classify_profile(measure_bounds(m, machine_), thresholds_);
  return s;
}

}  // namespace sparta
