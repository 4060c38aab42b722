// Solver scenario: Conjugate Gradient on a 3D Poisson problem through the
// measured production path — tune_host, then PreparedSpmv, then the
// persistent-region SolverEngine — the iterative-method context in which
// the paper's amortization analysis (§IV-D) lives.
//
// Prints the host tuner's plan, the format rewrites the prepared kernel
// applied (on this SPD system, symmetric storage whenever this host measures
// it faster than general CSR), CG statistics with the baseline and the tuned
// kernel, and the amortization iteration count N_iters,min. Exits non-zero
// if the tuned CG does not converge.
#include <iostream>
#include <memory>

#include "sparta.hpp"

int main() {
  using namespace sparta;

  // A 27-point Poisson system (SPD), the canonical CG workload.
  const CsrMatrix a = gen::stencil27(64, 64, 64);
  std::cout << "system: " << a.nrows() << " unknowns, " << a.nnz() << " nonzeros\n";
  const int threads = host_machine().cores;

  // Tune on this host: measured bounds, classes, the composed kernel and
  // the symmetric-storage rider, each plan timed for real.
  HostProfileOptions tune_opts;
  tune_opts.threads = threads;
  const OptimizationPlan plan = tune_host(a, tune_opts);
  std::cout << "tune_host: classes " << to_string(plan.classes) << ", kernel "
            << plan.config.describe() << ", " << Table::num(plan.gflops) << " GFLOP/s, t_pre "
            << Table::num(plan.t_pre_seconds * 1e3, 1) << " ms\n";

  // Prepare the plan once and hand it to the engine, as a solver service
  // would; the flags report which rewrites actually run.
  const auto prepared = std::make_shared<const kernels::PreparedSpmv>(
      a, kernels::SpmvOptions{.config = plan.config, .threads = threads, .first_touch = true});
  std::cout << "prepared: symmetric_applied=" << prepared->symmetric_applied()
            << " delta_applied=" << prepared->delta_applied()
            << " first_touch_applied=" << prepared->first_touch_applied() << ", "
            << Table::num(prepared->bytes_per_run() / 1e6, 1) << " MB per SpMV\n";

  engine::EngineOptions eo;
  eo.threads = threads;
  eo.max_iterations = 2000;
  eo.tolerance = 1e-8;
  const engine::SolverEngine baseline{a, kernels::KernelConfig{}, eo};
  const engine::SolverEngine tuned{a, prepared, eo};

  const aligned_vector<value_t> b(static_cast<std::size_t>(a.nrows()), 1.0);
  aligned_vector<value_t> x0(b.size(), 0.0);
  aligned_vector<value_t> x1(b.size(), 0.0);
  const auto r0 = baseline.cg(b, x0);
  const auto r1 = tuned.cg(b, x1);
  const auto report = [](const char* name, const solvers::SolveResult& r) {
    std::cout << name << r.iterations << " iterations, residual " << r.residual_norm << ", "
              << Table::num(r.seconds * 1e3, 1) << " ms"
              << (r.converged ? "" : " (NOT converged)") << "\n";
  };
  report("baseline CG: ", r0);
  report("tuned CG:    ", r1);

  // Amortization: N_iters,min = t_pre / (t_iter - t_iter') with measured
  // per-iteration times (paper §IV-D).
  if (r0.iterations > 0 && r1.iterations > 0) {
    const double t_iter = r0.seconds / r0.iterations;
    const double t_iter_opt = r1.seconds / r1.iterations;
    if (t_iter > t_iter_opt) {
      std::cout << "amortization: tuning (" << Table::num(plan.t_pre_seconds * 1e3, 1)
                << " ms) pays off after "
                << Table::num(plan.t_pre_seconds / (t_iter - t_iter_opt), 0)
                << " solver iterations\n";
    } else {
      std::cout << "amortization: the tuned kernel is not faster on this host\n";
    }
  }
  return r1.converged ? 0 : 1;
}
