// The optimizer front-ends — the system the paper evaluates.
//
// An Autotuner owns a target platform and produces OptimizationPlans via a
// single entry point, `tune(matrix, TuneOptions)`, whose policy selects the
// strategy:
//   profile-guided  — run the bound micro-benchmarks, classify (Fig. 4),
//                     apply the mapped optimizations jointly
//   feature-guided  — extract features, query the pre-trained tree
//   oracle          — perfect optimizer: best of the 15 candidate sets
//   trivial         — run every candidate (5 singles, or all 15) and keep
//                     the best; pays for every trial (paper Table V)
// Every plan carries both the optimized SpMV time and the preprocessing
// cost t_pre charged by the amortization analysis
//   N_iters,min = t_pre / (t_vendor - t_optimizer)        (paper §IV-D).
// When trace collection is on (TuneOptions::collect_trace, defaulting to
// obs::enabled()), the plan additionally carries an obs::TuneTrace — the
// full decision record (features, bound ratios, classes, per-phase cost).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "machine/machine_spec.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "tuner/bounds.hpp"
#include "tuner/feature_classifier.hpp"
#include "tuner/optimizations.hpp"
#include "tuner/profile_classifier.hpp"

namespace sparta {

/// Preprocessing cost model, in units the amortization study needs.
/// Time-valued constants are expressed as multiples of the baseline SpMV
/// time (so they scale with the matrix) plus fixed seconds for runtime code
/// generation. Values are calibrated against paper Table V; the fixed JIT
/// cost is scaled by the same 1/16 factor as the matrices and caches.
struct CostModelParams {
  /// SpMV iterations per timed trial ("We run 64 SpMV iterations to get
  /// valid timing measurements", paper §IV-D).
  int timing_iters = 64;
  /// Fixed runtime code-generation (JIT) cost per distinct kernel, seconds.
  double jit_fixed_seconds = 300e-6;
  /// Feature extraction cost, multiples of t_csr: O(N) subset / O(NNZ) subset.
  double feat_extract_linear_spmv = 1.0;
  double feat_extract_full_spmv = 5.0;
  /// Format-conversion setup costs, multiples of t_csr.
  double delta_setup_spmv = 3.0;
  double decompose_setup_spmv = 2.0;
  double autosched_setup_spmv = 0.1;
  /// Symmetric (lower-triangle+diagonal) storage build: count/scan/fill over
  /// the nonzeros plus the mirror-verification pass, priced like the
  /// paper's decomposition rewrite (decompose_setup_spmv).
  double sym_setup_spmv = 2.0;
  /// Extra setup for codegen-only variants (prefetch/unroll/vector).
  double codegen_setup_spmv = 0.5;
  /// Vendor inspector-executor inspection cost, multiples of t_csr.
  double ie_inspection_spmv = 40.0;
  /// Parallel inspector pipeline (DESIGN.md §13): threads available to the
  /// optimizer's own preprocessing (format conversion, feature extraction)
  /// and the parallel efficiency of the two-pass builders. The modeled
  /// speedup 1 + (threads - 1) * efficiency divides every conversion and
  /// extraction cost. The vendor inspection (ie_inspection_spmv) is opaque
  /// third-party code and stays serial in the model.
  int inspector_threads = 1;
  double inspector_parallel_efficiency = 0.6;

  /// Conversion/extraction speedup implied by the inspector fields.
  [[nodiscard]] double inspector_speedup() const {
    return inspector_threads > 1
               ? 1.0 + (inspector_threads - 1) * inspector_parallel_efficiency
               : 1.0;
  }

  /// Multi-vector (SpMM) traffic model (DESIGN.md §14): a k-wide SpMM
  /// streams the matrix arrays once plus k dense-operand footprints, where
  /// k sequential SpMVs stream both k times. Bandwidth-bound time is
  /// traffic-proportional, so with f = the matrix fraction of one SpMV's
  /// stream, t_spmm(k) / t_spmv = f + k (1 - f), plus a small per-extra-
  /// column compute charge — the register-blocked FMA columns are cheap but
  /// not free (register pressure, wider stores).
  double spmm_column_overhead = 0.02;

  /// Modeled time of one k-wide SpMM in units of one SpMV of the same
  /// matrix. `matrix_traffic_fraction` is f above (sim::matrix_traffic_
  /// fraction computes it from the CSR stream).
  [[nodiscard]] double spmm_time_spmv(int k, double matrix_traffic_fraction) const {
    const auto dk = static_cast<double>(k);
    return matrix_traffic_fraction + dk * (1.0 - matrix_traffic_fraction) +
           (dk - 1.0) * spmm_column_overhead;
  }

  /// Modeled speedup of one k-wide SpMM over k sequential SpMVs — the
  /// break-even ratio bench/table5_amortization reports. > 1 whenever the
  /// matrix stream dominates enough to amortize.
  [[nodiscard]] double spmm_speedup(int k, double matrix_traffic_fraction) const {
    return static_cast<double>(k) / spmm_time_spmv(k, matrix_traffic_fraction);
  }
};

/// Outcome of one optimizer invocation for one matrix.
struct OptimizationPlan {
  std::string strategy;                     // "profile", "feature", "oracle", ...
  BottleneckSet classes;                    // detected bottlenecks (empty for sweeps)
  std::vector<Optimization> optimizations;  // jointly applied set
  sim::KernelConfig config;                 // composed kernel variant
  double gflops = 0.0;                      // optimized SpMV rate
  double t_spmv_seconds = 0.0;              // optimized per-iteration time
  double t_pre_seconds = 0.0;               // optimizer overhead (selection+setup)
  /// Full decision record; null unless trace collection was requested.
  std::shared_ptr<const obs::TuneTrace> trace;
};

/// Strategy selector for Autotuner::tune / Autotuner::plan.
enum class TunePolicy {
  kProfile,          // bound micro-benchmarks + rule classifier (Fig. 4)
  kFeature,          // structural features + pre-trained tree (needs classifier)
  kOracle,           // best of the 15 candidate sets, zero charged overhead
  kTrivialSingle,    // sweep the 5 single-optimization sets, pay every trial
  kTrivialCombined,  // sweep all 15 candidate sets, pay every trial
};

/// The strategy string a policy produces ("profile", "feature", ...).
std::string to_string(TunePolicy policy);

// Trace payload helpers (shared by the modeled and host tuning paths).
std::vector<obs::NamedValue> named_features(const FeatureVector& fv);
std::vector<obs::NamedValue> named_bounds(const PerfBounds& b);
std::vector<std::string> named_classes(BottleneckSet s);
/// The trace of `plan` for a matrix of the given shape: every field but
/// `extra`, which each tuning path fills with its own values.
obs::TuneTrace plan_trace(const OptimizationPlan& plan, std::string matrix, index_t nrows,
                          offset_t nnz, const FeatureVector& features, const PerfBounds& bounds,
                          std::vector<obs::PhaseCost> phases);

/// Everything that parameterizes one tune()/plan() call.
struct TuneOptions {
  TunePolicy policy = TunePolicy::kProfile;
  /// Required for kFeature; ignored otherwise. Not owned.
  const FeatureClassifier* classifier = nullptr;
  /// Matrix label recorded in the trace.
  std::string name{};
  /// Attach an obs::TuneTrace to the returned plan. Defaults to the
  /// runtime telemetry toggle; can be forced on even when telemetry is
  /// disabled (trace building is cold-path and always compiled in).
  bool collect_trace = obs::enabled();
};

class Autotuner {
 public:
  explicit Autotuner(MachineSpec machine, ProfileThresholds thresholds = {},
                     CostModelParams cost = {}, ImbPolicy imb = {});

  /// Everything the benches need for one matrix, computed once: bounds,
  /// features, and the simulated performance of every candidate kernel
  /// configuration (the 15 sweep sets plus every class-mask selection).
  struct Evaluation {
    std::string name;
    index_t nrows = 0;
    offset_t nnz = 0;
    /// Exact structural + numerical symmetry (is_symmetric,
    /// sparse/properties.hpp) — gates the symmetric-storage rider on every
    /// derived plan.
    bool symmetric = false;
    PerfBounds bounds;
    FeatureVector features;
    /// Simulated GFLOP/s per kernel configuration (a small config->rate map).
    std::vector<std::pair<sim::KernelConfig, double>> perf;
    /// GFLOP/s of the joint selection for every class bitmask 0..15
    /// (mask 0 = baseline).
    std::array<double, 16> class_mask_gflops{};
    /// GFLOP/s of each combined_optimization_sets() entry, in order.
    std::vector<double> combo_gflops;
    /// Wall-clock cost of the evaluation phases (bounds/features/simulate),
    /// carried into the trace of any plan derived from this evaluation.
    std::vector<obs::PhaseCost> phases;

    /// Rate for a config simulated during evaluate(); throws if absent.
    [[nodiscard]] double gflops_for(const sim::KernelConfig& cfg) const;
    /// Optimized SpMV seconds from a rate.
    [[nodiscard]] double seconds_at(double gflops) const;
  };

  [[nodiscard]] Evaluation evaluate(const std::string& name, const CsrMatrix& m) const;

  // --- The unified entry points -------------------------------------------
  /// Evaluate + plan in one call.
  [[nodiscard]] OptimizationPlan tune(const CsrMatrix& m, const TuneOptions& opts = {}) const;
  /// Plan from a precomputed evaluation (pure lookups).
  [[nodiscard]] OptimizationPlan plan(const Evaluation& e, const TuneOptions& opts = {}) const;

  /// Simulate one configuration directly.
  [[nodiscard]] double simulate_gflops(const CsrMatrix& m, const sim::KernelConfig& cfg) const;

  /// Build a labeled training sample (features + profile-guided labels).
  [[nodiscard]] TrainingSample label(const CsrMatrix& m) const;
  [[nodiscard]] TrainingSample label(const Evaluation& e) const;

  [[nodiscard]] const MachineSpec& machine() const { return machine_; }
  [[nodiscard]] const ProfileThresholds& thresholds() const { return thresholds_; }
  [[nodiscard]] const CostModelParams& cost_model() const { return cost_; }
  [[nodiscard]] const ImbPolicy& imb_policy() const { return imb_; }
  [[nodiscard]] FeatureExtractionConfig extraction_config() const;

 private:
  [[nodiscard]] double setup_seconds(const std::vector<Optimization>& ops,
                                     double t_csr) const;
  [[nodiscard]] OptimizationPlan plan_from_classes(const Evaluation& e, BottleneckSet classes,
                                                   std::string strategy,
                                                   double selection_seconds) const;
  [[nodiscard]] OptimizationPlan plan_profile_impl(const Evaluation& e) const;
  [[nodiscard]] OptimizationPlan plan_feature_impl(const Evaluation& e,
                                                   const FeatureClassifier& fc) const;
  [[nodiscard]] OptimizationPlan plan_oracle_impl(const Evaluation& e) const;
  [[nodiscard]] OptimizationPlan plan_trivial_impl(const Evaluation& e, bool combined) const;

  MachineSpec machine_;
  ProfileThresholds thresholds_;
  CostModelParams cost_;
  ImbPolicy imb_;
};

}  // namespace sparta
