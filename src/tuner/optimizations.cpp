#include "tuner/optimizations.hpp"

#include <algorithm>

namespace sparta {

std::string to_string(Optimization o) {
  switch (o) {
    case Optimization::kDeltaVec: return "delta+vec";
    case Optimization::kPrefetch: return "prefetch";
    case Optimization::kDecompose: return "decompose";
    case Optimization::kAutoSched: return "auto-sched";
    case Optimization::kUnrollVec: return "unroll+vec";
  }
  return "?";
}

std::string to_string(const std::vector<Optimization>& os) {
  if (os.empty()) return "(none)";
  std::string s;
  for (std::size_t i = 0; i < os.size(); ++i) {
    if (i > 0) s += '+';
    s += to_string(os[i]);
  }
  return s;
}

Bottleneck target_class(Optimization o) {
  switch (o) {
    case Optimization::kDeltaVec: return Bottleneck::kMB;
    case Optimization::kPrefetch: return Bottleneck::kML;
    case Optimization::kDecompose:
    case Optimization::kAutoSched: return Bottleneck::kIMB;
    case Optimization::kUnrollVec: return Bottleneck::kCMP;
  }
  return Bottleneck::kMB;
}

bool has_uneven_rows(const FeatureVector& fv, const ImbPolicy& policy) {
  return fv[Feature::kNnzMax] / std::max(fv[Feature::kNnzAvg], 1.0) > policy.uneven_row_ratio;
}

std::vector<Optimization> select_optimizations(BottleneckSet classes, const FeatureVector& fv,
                                               const ImbPolicy& policy) {
  std::vector<Optimization> out;
  if (classes.contains(Bottleneck::kMB)) out.push_back(Optimization::kDeltaVec);
  if (classes.contains(Bottleneck::kML)) out.push_back(Optimization::kPrefetch);
  if (classes.contains(Bottleneck::kIMB)) {
    out.push_back(has_uneven_rows(fv, policy) ? Optimization::kDecompose
                                              : Optimization::kAutoSched);
  }
  if (classes.contains(Bottleneck::kCMP)) out.push_back(Optimization::kUnrollVec);
  return out;
}

std::vector<Optimization> select_host_optimizations(BottleneckSet classes,
                                                    const FeatureVector& fv,
                                                    const ImbPolicy& policy) {
  std::vector<Optimization> out = select_optimizations(classes, fv, policy);
  // MB's delta keeps precedence; IMB on uneven rows has decomposed already.
  if (has_uneven_rows(fv, policy) && !classes.contains(Bottleneck::kMB) &&
      !classes.contains(Bottleneck::kIMB)) {
    out.insert(std::lower_bound(out.begin(), out.end(), Optimization::kDecompose),
               Optimization::kDecompose);
  }
  return out;
}

sim::KernelConfig config_for(const std::vector<Optimization>& os) {
  sim::KernelConfig cfg;
  for (Optimization o : os) {
    switch (o) {
      case Optimization::kDeltaVec:
        cfg.delta = true;
        cfg.vectorized = true;
        break;
      case Optimization::kPrefetch:
        cfg.prefetch = true;
        break;
      case Optimization::kDecompose:
        cfg.decomposed = true;
        break;
      case Optimization::kAutoSched:
        cfg.schedule = sim::Schedule::kDynamicChunks;
        break;
      case Optimization::kUnrollVec:
        cfg.unrolled = true;
        cfg.vectorized = true;
        break;
    }
  }
  return cfg;
}

const std::vector<std::vector<Optimization>>& single_optimization_sets() {
  static const std::vector<std::vector<Optimization>> kSingles = [] {
    std::vector<std::vector<Optimization>> v;
    for (int i = 0; i < kNumOptimizations; ++i) {
      v.push_back({static_cast<Optimization>(i)});
    }
    return v;
  }();
  return kSingles;
}

const std::vector<std::vector<Optimization>>& combined_optimization_sets() {
  static const std::vector<std::vector<Optimization>> kAll = [] {
    auto v = single_optimization_sets();
    for (int i = 0; i < kNumOptimizations; ++i) {
      for (int j = i + 1; j < kNumOptimizations; ++j) {
        // All C(5,2)=10 pairs are swept, matching the paper's count of 15
        // trivial-combined candidates (decompose+auto applies dynamic
        // scheduling to the short-row part of the decomposition).
        v.push_back({static_cast<Optimization>(i), static_cast<Optimization>(j)});
      }
    }
    return v;
  }();
  return kAll;
}

}  // namespace sparta
