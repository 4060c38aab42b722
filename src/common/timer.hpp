// Wall-clock timing for the host-execution path (real kernels, STREAM probe,
// preprocessing-cost ledger). The simulator path produces its own virtual
// times and never touches this. time_repetitions is the one repetition loop
// of the host tuner, the benches and the tools.
#pragma once

#include <algorithm>
#include <chrono>

namespace sparta {

/// Monotonic stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Summed-time budget of each timed kernel: repetitions stop once their
/// total reaches it, as in cusplibrary's time_spmv. With tune_host's default
/// cap of 16 it binds only when one SpMV takes longer than ~15.6 ms.
inline constexpr double kKernelBudgetSeconds = 0.25;
/// Repetitions each timed kernel runs at least (capped by `max_reps`).
inline constexpr int kMinRepetitions = 3;

/// What time_repetitions measured (the warm-up call excluded).
struct Repetitions {
  double best = 1e30;  // fastest repetition, seconds
  double mean = 0.0;   // mean repetition, seconds
  int count = 0;
};

/// One warm-up call, then timed calls until their summed wall time reaches
/// kKernelBudgetSeconds: never fewer than min(kMinRepetitions, max_reps),
/// never more than max_reps (>= 1).
template <class Fn>
Repetitions time_repetitions(Fn&& fn, int max_reps) {
  fn();
  const int min_reps = std::min(kMinRepetitions, max_reps);
  Repetitions r;
  double total = 0.0;
  while (r.count < max_reps && (r.count < min_reps || total < kKernelBudgetSeconds)) {
    const Timer t;
    fn();
    const double s = t.seconds();
    r.best = std::min(r.best, s);
    total += s;
    ++r.count;
  }
  r.mean = total / r.count;
  return r;
}

}  // namespace sparta
