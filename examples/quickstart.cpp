// Quickstart: generate (or load) a sparse matrix, autotune SpMV for it, and
// run the optimized kernel on the host.
//
//   ./quickstart [matrix.mtx]
//
// Without an argument a web-graph-like matrix is generated. The example
// shows the full public-API flow: classify -> plan -> prepare -> run.
#include <iostream>

#include "sparta.hpp"

int main(int argc, char** argv) {
  using namespace sparta;

  // 1. Obtain a matrix: from a Matrix Market file, or generated.
  CsrMatrix matrix = argc > 1 ? mm::read_csr_file(argv[1])
                              : gen::powerlaw(50000, 1.7, 2000, /*seed=*/7);
  std::cout << "matrix: " << matrix.nrows() << " x " << matrix.ncols() << ", "
            << matrix.nnz() << " nonzeros\n";

  // 2. Pick a target platform. `knc()`, `knl()` and `broadwell()` are the
  //    paper's modeled platforms; host_machine(true) describes this machine
  //    with its sysconf cache sizes and the process's STREAM roof.
  const MachineSpec target = knl();
  const Autotuner tuner{target};

  // 3. Tune: the default TuneOptions policy is profile-guided — run the
  //    bound micro-benchmarks, classify the matrix (Fig. 4 of the paper)
  //    and compose the optimizations. Other policies (feature-guided,
  //    oracle, trivial sweeps) are one TuneOptions field away.
  const OptimizationPlan plan = tuner.tune(matrix);
  std::cout << "detected bottlenecks on " << target.name << ": " << to_string(plan.classes)
            << "\n"
            << "selected optimizations:  " << to_string(plan.optimizations) << "\n"
            << "kernel variant:          " << plan.config.describe() << "\n"
            << "expected rate:           " << Table::num(plan.gflops) << " GFLOP/s (vs "
            << Table::num(plan.gflops > 0 ? tuner.simulate_gflops(matrix, sim::KernelConfig{})
                                          : 0.0)
            << " baseline)\n";

  // 4. Prepare the real host kernel for the selected variant and run it.
  const kernels::PreparedSpmv spmv{
      matrix, kernels::SpmvOptions{.config = plan.config, .threads = host_machine().cores}};
  aligned_vector<value_t> x(static_cast<std::size_t>(matrix.ncols()), 1.0);
  aligned_vector<value_t> y(static_cast<std::size_t>(matrix.nrows()));
  spmv.run(x, y);

  // 5. Verify against the reference kernel.
  aligned_vector<value_t> want(y.size());
  spmv_reference(matrix, x, want);
  double max_err = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    max_err = std::max(max_err, std::abs(y[i] - want[i]));
  }
  std::cout << "host run complete; preprocessing took "
            << Table::num(spmv.prep_seconds() * 1e3, 2) << " ms; max |error| = " << max_err
            << "\n";

  // 6. The same prepared kernel multiplies several right-hand sides at once:
  //    run(X, Y) over rows x k operand views reads the matrix stream once
  //    per k columns (Y = alpha A X + beta Y; any k runs in register-blocked
  //    chunks of 8, 4, 2 and 1 columns).
  constexpr index_t kWidth = 4;
  aligned_vector<value_t> xs(static_cast<std::size_t>(matrix.ncols()) * kWidth, 1.0);
  aligned_vector<value_t> ys(static_cast<std::size_t>(matrix.nrows()) * kWidth);
  spmv.run(kernels::ConstDenseBlockView{xs.data(), matrix.ncols(), kWidth, kWidth},
           kernels::DenseBlockView{ys.data(), matrix.nrows(), kWidth, kWidth});
  double max_block_err = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    for (index_t c = 0; c < kWidth; ++c) {
      max_block_err =
          std::max(max_block_err, std::abs(ys[i * kWidth + static_cast<std::size_t>(c)] - want[i]));
    }
  }
  std::cout << "block run (" << kWidth << " right-hand sides) max |error| = " << max_block_err
            << "\n";
  return max_err < 1e-9 && max_block_err < 1e-9 ? 0 : 1;
}
