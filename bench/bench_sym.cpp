// Symmetric-storage SpMV bench — SymCsr (strict lower triangle + dense
// diagonal; each part stores its rows straight into y and collects the
// mirrors below its first row in a small halo window) vs. general CSR over
// an SPD suite.
//
// For every matrix we prepare the general kernel and the symmetric kernel
// (config.symmetric through the registry, so this measures exactly what the
// tuner dispatches), verify the symmetric storage was applied, and time
// width-1 runs of both. Reported per matrix: the matrix-stream byte ratio
// (symmetric / general, dense operands excluded — the traffic the format
// halves) and the SpMV GFLOP/s of both paths. A machine-readable summary
// goes to BENCH_sym.json.
//
// `--smoke` runs two SPD 27-point stencils only (64³ and 80³: 84 and 166 MB
// of CSR) and asserts the gates:
// matrix-stream bytes <= 0.6x general CSR and SpMV throughput >= 1.2x the
// general kernel on every smoke matrix. The full run adds a report-only
// symmetrized power-law matrix, whose random mirror writes make the
// symmetric plan slower than general CSR: the case tune_host's keep rule
// drops. `--out FILE` overrides the JSON path.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "kernels/kernel_registry.hpp"
#include "obs/json.hpp"
#include "sim/traffic_model.hpp"

namespace {

using namespace sparta;

struct Result {
  std::string name;
  index_t nrows = 0;
  offset_t nnz = 0;
  double bytes_ratio = 0.0;
  double modeled_ratio = 0.0;
  double gflops_general = 0.0;
  double gflops_sym = 0.0;
  double speedup = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);

  bool smoke = false;
  std::string out_path = "BENCH_sym.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_sym [--smoke] [--out FILE] [--threads N]\n";
      return 2;
    }
  }

  bench::print_header("bench_sym", "symmetric storage (SymCsr) vs general CSR");
  const int threads = bench::effective_threads();
  const int reps = smoke ? 5 : 7;

  // SPD suite: Poisson stencils whose general CSR stream exceeds the L2
  // caches, where halving the matrix stream must show up as throughput.
  // The smoke set uses the 27-point stencils, where the matrix stream
  // dominates most: 84 and 166 MB of CSR, which an LLC of 300 MiB (a 4-vCPU
  // VM) still holds. The full run
  // adds the 5-point stencils (~5 nnz/row, so the dense operands weigh
  // more) and the symmetrized power-law matrix.
  std::vector<gen::NamedMatrix> matrices;
  if (smoke) {
    matrices.push_back(
        gen::NamedMatrix{"stencil27-smoke", "stencil", gen::stencil27(64, 64, 64)});
    matrices.push_back(
        gen::NamedMatrix{"stencil27-large-smoke", "stencil", gen::stencil27(80, 80, 80)});
  } else {
    matrices.push_back(gen::NamedMatrix{"stencil5-small", "stencil", gen::stencil5(500, 500)});
    matrices.push_back(
        gen::NamedMatrix{"stencil5-large", "stencil", gen::stencil5(1400, 1400)});
    matrices.push_back(
        gen::NamedMatrix{"stencil27-small", "stencil", gen::stencil27(40, 40, 40)});
    matrices.push_back(
        gen::NamedMatrix{"stencil27-large", "stencil", gen::stencil27(64, 64, 64)});
    matrices.push_back(gen::NamedMatrix{
        "powerlaw-sym", "powerlaw", gen::symmetrized(gen::powerlaw(400000, 1.9, 4000, 111), 112)});
  }

  bool ok = true;
  double sink = 0.0;
  std::vector<Result> results;

  for (const auto& nm : matrices) {
    const CsrMatrix& m = nm.matrix;
    const auto rows = static_cast<std::size_t>(m.nrows());
    aligned_vector<value_t> x(rows), y(rows);
    for (std::size_t i = 0; i < rows; ++i) x[i] = 1.0 + 1e-6 * static_cast<double>(i % 1024);

    const kernels::PreparedSpmv general{m, {.config = {}, .threads = threads}};
    sim::KernelConfig sym_cfg;
    sym_cfg.symmetric = true;
    const kernels::PreparedSpmv sym{m, {.config = sym_cfg, .threads = threads}};
    if (!sym.symmetric_applied()) {
      std::cerr << "FAIL: symmetric storage not applied on " << nm.name << "\n";
      ok = false;
      continue;
    }

    // Matrix-stream bytes only: subtract the identical dense operand
    // footprint both kernels carry per run.
    const double per_column = static_cast<double>(m.ncols() + m.nrows()) * sizeof(value_t);
    Result r;
    r.name = nm.name;
    r.nrows = m.nrows();
    r.nnz = m.nnz();
    r.bytes_ratio =
        (sym.bytes_per_run(1) - per_column) / (general.bytes_per_run(1) - per_column);
    r.modeled_ratio = sim::sym_matrix_stream_ratio(m);

    // Best repetition of each plan.
    const auto timed = [&](const kernels::PreparedSpmv& plan) {
      const auto product = [&] {
        plan.run(std::span<const value_t>{x}, std::span<value_t>{y});
        sink += y[0];
      };
      return time_repetitions(product, reps).best;
    };
    const double t_general = timed(general);
    const double t_sym = timed(sym);

    const double flops = 2.0 * static_cast<double>(m.nnz());
    r.gflops_general = flops / t_general * 1e-9;
    r.gflops_sym = flops / t_sym * 1e-9;
    r.speedup = t_general / t_sym;
    results.push_back(r);

    std::cout << "\n" << nm.name << " (" << m.nrows() << " rows, " << m.nnz() << " nnz)\n";
    std::printf("  matrix bytes ratio %.3f (modeled %.3f)   general %.2f GF/s   "
                "sym %.2f GF/s   speedup %.2fx\n",
                r.bytes_ratio, r.modeled_ratio, r.gflops_general, r.gflops_sym, r.speedup);

    if (smoke) {
      if (!(r.bytes_ratio <= 0.6)) {
        std::cerr << "FAIL: " << nm.name << " symmetric matrix stream is " << r.bytes_ratio
                  << "x of general CSR (bound: 0.6x)\n";
        ok = false;
      }
      if (!(r.speedup >= 1.2)) {
        std::cerr << "FAIL: " << nm.name << " symmetric SpMV is only " << r.speedup
                  << "x of the general kernel (bound: 1.2x)\n";
        ok = false;
      }
    }
  }

  std::string json = "{\n  \"threads\": " + std::to_string(threads) +
                     ",\n  \"smoke\": " + (smoke ? "true" : "false") +
                     ",\n  \"matrices\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    json += "    {\"name\": ";
    obs::json::append_quoted(json, r.name);
    json += ", \"nrows\": " + std::to_string(r.nrows) +
            ", \"nnz\": " + std::to_string(r.nnz) + ", \"bytes_ratio\": ";
    obs::json::append_number(json, r.bytes_ratio);
    json += ", \"modeled_ratio\": ";
    obs::json::append_number(json, r.modeled_ratio);
    json += ", \"gflops_general\": ";
    obs::json::append_number(json, r.gflops_general);
    json += ", \"gflops_sym\": ";
    obs::json::append_number(json, r.gflops_sym);
    json += ", \"speedup\": ";
    obs::json::append_number(json, r.speedup);
    json += "}";
    json += (i + 1 < results.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::ofstream out{out_path};
  out << json;
  std::cout << "\nwrote " << out_path << " (sink=" << (static_cast<long long>(sink) & 1)
            << ")\n";
  if (smoke) {
    std::cout << (ok ? "smoke check passed: matrix stream <= 0.6x and SpMV >= 1.2x of "
                       "general CSR on the SPD suite\n"
                     : "smoke check FAILED\n");
  }
  return ok ? 0 : 1;
}
