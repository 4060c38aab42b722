// Host-hardware edition of Fig. 5: the optimization pool executed with
// *real* kernels and wall-clock timers on this machine, for a cross-section
// of the suite. This is the reproduction path a user with actual Xeon Phi /
// Xeon hardware would extend — the modeled-platform benches and this one
// share every interface above the kernel layer.
//
// Columns: baseline CSR, each single optimization, the host profile-guided
// plan (with its classes and the kernel it runs), and the measured oracle
// (best single config). Rates are GFLOP/s measured over repeated warm runs.
#include <omp.h>

#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "kernels/kernel_registry.hpp"
#include "tuner/host_profiler.hpp"

namespace {

using namespace sparta;

double measure_gflops(const CsrMatrix& m, const sim::KernelConfig& cfg, int threads,
                      int iterations) {
  const kernels::PreparedSpmv spmv{m, kernels::SpmvOptions{.config = cfg, .threads = threads}};
  aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()), 1.0);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  const double best = time_repetitions([&] { spmv.run(x, y); }, iterations).best;
  return 2.0 * static_cast<double>(m.nnz()) / best * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  sparta::bench::init(argc, argv);
  using namespace sparta;
  bench::print_header("host_landscape", "Figure 5, host-hardware edition (extension)");

  const int threads = std::max(1, omp_get_max_threads());
  const int iterations = 8;
  std::cout << "host: " << threads << " thread(s); best of at most " << iterations
            << " warm runs per cell (fewer once they sum to " << kKernelBudgetSeconds
            << " s)\n\n";

  const std::vector<std::string> picks{"consph", "poisson3Db", "webbase-1M", "rajat30",
                                       "human_gene1"};
  const auto& singles = single_optimization_sets();

  std::vector<std::string> header{"matrix", "baseline"};
  for (const auto& s : singles) header.push_back(to_string(s));
  header.emplace_back("host-tuned");
  header.emplace_back("best");
  Table table{header};

  for (const auto& name : picks) {
    const CsrMatrix m = gen::make_suite_matrix(name);
    std::vector<std::string> row{name};
    const double base = measure_gflops(m, sim::KernelConfig{}, threads, iterations);
    row.push_back(Table::num(base));
    double best = base;
    for (const auto& s : singles) {
      const double g = measure_gflops(m, config_for(s), threads, iterations);
      best = std::max(best, g);
      row.push_back(Table::num(g));
    }
    HostProfileOptions opts;
    opts.threads = threads;
    opts.iterations = iterations;
    const auto plan = tune_host(m, opts);
    best = std::max(best, plan.gflops);
    row.push_back(Table::num(plan.gflops) + " " + to_string(plan.classes) + " " +
                  plan.config.describe());
    row.push_back(Table::num(best));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(GFLOP/s measured on this machine — absolute values depend on the\n"
               " hardware running this binary; the modeled-platform benches carry the\n"
               " paper comparison)\n";
  return 0;
}
