#include "check/validate_tuner.hpp"

#include <string>

#include "check/validate.hpp"
#include "tuner/optimizations.hpp"

namespace sparta::check {

namespace {

[[noreturn]] void fail_v(std::string violation, const std::string& detail) {
  throw ValidationError{std::move(violation), detail};
}

}  // namespace

void validate(const OptimizationPlan& plan, Level effort) {
  if (effort == Level::kOff) return;
  if (plan.strategy.empty()) fail_v("plan.strategy", "empty strategy tag");
  // The optimization list is kept in canonical enum order with no
  // duplicates (select_optimizations and the sweep sets both emit it so).
  for (std::size_t i = 0; i < plan.optimizations.size(); ++i) {
    const auto o = static_cast<int>(plan.optimizations[i]);
    if (o < 0 || o >= kNumOptimizations) {
      fail_v("plan.optimizations.range", "unknown optimization id " + std::to_string(o));
    }
    if (i > 0 && plan.optimizations[i] <= plan.optimizations[i - 1]) {
      fail_v("plan.optimizations.order", "optimizations not in canonical order");
    }
  }
  // The composed config must be exactly what the optimization list implies —
  // a mismatch means the plan would run a different kernel than it reports.
  // The symmetric-storage bit is the one field the optimization pool does
  // not own (the planner sets it orthogonally for symmetric matrices), so
  // it is carried over before the comparison — but only where the rest of
  // the config allows it.
  kernels::KernelConfig expected = config_for(plan.optimizations);
  expected.symmetric = plan.config.symmetric;
  if (plan.config.symmetric && !plan.config.allows_symmetric()) {
    fail_v("plan.config.symmetric.exclusive",
           "symmetric storage combined with delta/decomposed/dynamic in '" +
               plan.config.describe() + "'");
  }
  if (expected != plan.config) {
    fail_v("plan.config.consistency",
           "config '" + plan.config.describe() + "' does not match optimizations '" +
               to_string(plan.optimizations) + "'");
  }
  if (!(plan.gflops >= 0.0)) {
    fail_v("plan.gflops", "negative or NaN rate " + std::to_string(plan.gflops));
  }
  if (!(plan.t_spmv_seconds >= 0.0) || !(plan.t_pre_seconds >= 0.0)) {
    fail_v("plan.times", "negative or NaN t_spmv/t_pre");
  }
}

}  // namespace sparta::check
