// The optimization pool and the class → optimization mapping (paper
// Table II):
//   MB  → delta-compressed column indices + vectorization
//   ML  → software prefetching on x
//   IMB → long-row matrix decomposition OR OpenMP auto scheduling,
//         sub-selected by structural features (nnz_max vs nnz_avg / bw_sd)
//   CMP → inner-loop unrolling + vectorization
// Detected bottlenecks are tackled *jointly*: the selected optimizations
// compose into one KernelConfig.
#pragma once

#include <string>
#include <vector>

#include "features/features.hpp"
#include "sim/kernel_model.hpp"
#include "tuner/bottleneck.hpp"

namespace sparta {

/// The five members of the pool (IMB contributes two alternatives).
enum class Optimization : std::uint8_t {
  kDeltaVec = 0,   // MB
  kPrefetch = 1,   // ML
  kDecompose = 2,  // IMB (a): highly uneven row lengths
  kAutoSched = 3,  // IMB (b): computational unevenness
  kUnrollVec = 4,  // CMP
};

inline constexpr int kNumOptimizations = 5;

std::string to_string(Optimization o);
std::string to_string(const std::vector<Optimization>& os);

/// Which class an optimization addresses.
Bottleneck target_class(Optimization o);

/// Sub-selection policy for the IMB class: decomposition when the matrix
/// has highly uneven row lengths (nnz_max >> nnz_avg), auto scheduling for
/// computational unevenness (detected via bw_sd). Thresholds per §III-E.
/// The host tuner also reads it to split uneven rows whatever the IMB
/// class reads (select_host_optimizations).
struct ImbPolicy {
  /// decompose when nnz_max / max(nnz_avg, 1) exceeds this. The value
  /// separates circuit-style matrices (a dense row is worth thousands of
  /// average rows — only cooperative decomposition helps) from power-law
  /// hubs (hundreds of average rows — dynamic scheduling redistributes them
  /// fine, cf. the paper's flickr discussion). See bench/ablation_imb_policy.
  double uneven_row_ratio = 1000.0;
};

/// The uneven-rows test of §III-E: nnz_max / max(nnz_avg, 1) exceeds
/// `policy.uneven_row_ratio`.
bool has_uneven_rows(const FeatureVector& fv, const ImbPolicy& policy = {});

/// Map a detected class set (+ features, for the IMB sub-selection) to the
/// jointly-applied optimizations, in canonical enum order.
std::vector<Optimization> select_optimizations(BottleneckSet classes, const FeatureVector& fv,
                                               const ImbPolicy& policy = {});

/// The host tuner's mapping: select_optimizations, plus long-row
/// decomposition on every matrix with uneven rows unless delta was
/// selected. The split is structural: on the host a few dense rows set the
/// slowest thread's time whether or not one noisy P_IMB reading crosses
/// T_IMB. Canonical enum order.
std::vector<Optimization> select_host_optimizations(BottleneckSet classes,
                                                    const FeatureVector& fv,
                                                    const ImbPolicy& policy = {});

/// Compose optimizations into a single kernel configuration.
sim::KernelConfig config_for(const std::vector<Optimization>& os);

/// All 5 single-optimization sets (the paper's trivial-single optimizer).
const std::vector<std::vector<Optimization>>& single_optimization_sets();

/// Singles plus all 10 pairs — the 15 candidates the trivial-combined
/// optimizer and the oracle sweep.
const std::vector<std::vector<Optimization>>& combined_optimization_sets();

}  // namespace sparta
