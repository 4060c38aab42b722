// Multi-vector SpMM bench — the register-blocked block path (DESIGN.md §14)
// vs. k sequential SpMVs, over the gen suite.
//
// For every matrix and k in {1, 2, 4, 8} we prepare the kernel with
// block_width = k, time one k-wide run(X, Y) and k width-1 runs over the
// same data, and report GFLOP/s (2 * nnz * k flops) plus the measured
// speedup of the blocked path. The matrix stream is read once per k
// columns, so bandwidth-bound matrices approach the modeled bound
// k / (f + k (1 - f)); a machine-readable summary goes to BENCH_spmm.json.
//
// `--smoke` runs two large bandwidth-bound matrices only and asserts the
// regression bound CI cares about: the k = 4 blocked path must reach at
// least 1.5x the GFLOP/s of 4 sequential SpMVs. `--out FILE` overrides the
// JSON path.
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
#include "tuner/optimizer.hpp"

namespace {

using namespace sparta;

struct KResult {
  int k = 1;
  double gflops_spmm = 0.0;
  double gflops_seq = 0.0;
  double speedup = 0.0;
  double modeled = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);

  bool smoke = false;
  std::string out_path = "BENCH_spmm.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_spmm [--smoke] [--out FILE] [--threads N]\n";
      return 2;
    }
  }

  bench::print_header("bench_spmm", "DESIGN.md §14 (multi-vector SpMM)");
  const int threads = bench::effective_threads();
  const int reps = smoke ? 5 : 7;
  const std::vector<int> widths{1, 2, 4, 8};

  // The smoke matrices hold 58 and 63 MB of CSR (4.7 M and 5.0 M nonzeros):
  // beyond the L2 caches, but inside an LLC of that size or more (a 4-vCPU
  // VM reporting 300 MiB holds both), where the k = 4 amortization measures
  // below the DRAM-bound cost model.
  std::vector<gen::NamedMatrix> matrices;
  if (smoke) {
    matrices.push_back(
        gen::NamedMatrix{"banded-smoke", "banded", gen::banded(250000, 24, 18, 9001)});
    matrices.push_back(
        gen::NamedMatrix{"banded-large-smoke", "banded", gen::banded(320000, 32, 15, 9002)});
  } else {
    matrices = gen::make_suite();
  }

  const CostModelParams cost{};
  bool ok = true;
  double sink = 0.0;
  std::string json = "{\n  \"threads\": " + std::to_string(threads) +
                     ",\n  \"smoke\": " + (smoke ? "true" : "false") +
                     ",\n  \"matrices\": [\n";

  for (std::size_t mi = 0; mi < matrices.size(); ++mi) {
    const auto& nm = matrices[mi];
    const CsrMatrix& m = nm.matrix;
    const double f = sim::matrix_traffic_fraction(m);
    std::cout << "\n" << nm.name << " (" << m.nrows() << " rows, " << m.nnz()
              << " nnz, matrix traffic fraction " << f << ")\n";
    std::cout << "  k   SpMM GF/s   k-seq GF/s   speedup   modeled\n";

    std::vector<KResult> results;
    for (const int k : widths) {
      const kernels::PreparedSpmv spmv{
          m, {.config = {}, .threads = threads, .block_width = k}};
      const auto rows = static_cast<std::size_t>(m.nrows());
      const auto cols = static_cast<std::size_t>(m.ncols());
      const auto kk = static_cast<std::size_t>(k);
      aligned_vector<value_t> xs(cols * kk);
      aligned_vector<value_t> ys(rows * kk);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        xs[i] = 1.0 + 1e-6 * static_cast<double>(i % 1024);
      }
      const kernels::ConstDenseBlockView xb{xs.data(), m.ncols(), k, k};
      const kernels::DenseBlockView yb{ys.data(), m.nrows(), k, k};

      const auto spmm = [&] {
        spmv.run(xb, yb);
        sink += ys[0];
      };
      // Best repetition; the warm-up call first-touches ys.
      const double t_spmm = time_repetitions(spmm, reps).best;
      // The fair sequential baseline: k width-1 passes over contiguous
      // per-column vectors (what a caller without the block path would run).
      aligned_vector<value_t> xc(cols);
      aligned_vector<value_t> yc(rows);
      for (std::size_t i = 0; i < cols; ++i) xc[i] = xs[i * kk];
      const auto seq = [&] {
        for (int c = 0; c < k; ++c) {
          spmv.run(std::span<const value_t>{xc}, std::span<value_t>{yc});
        }
        sink += yc[0];
      };
      const double t_seq = time_repetitions(seq, reps).best;

      const double flops = 2.0 * static_cast<double>(m.nnz()) * static_cast<double>(k);
      KResult r;
      r.k = k;
      r.gflops_spmm = flops / t_spmm * 1e-9;
      r.gflops_seq = flops / t_seq * 1e-9;
      r.speedup = t_seq / t_spmm;
      r.modeled = cost.spmm_speedup(k, f);
      results.push_back(r);
      std::printf("  %d   %9.2f   %10.2f   %6.2fx   %6.2fx\n", r.k, r.gflops_spmm,
                  r.gflops_seq, r.speedup, r.modeled);

      if (smoke && k == 4 && !(r.speedup >= 1.5)) {
        std::cerr << "FAIL: " << nm.name << " k=4 SpMM is only " << r.speedup
                  << "x of 4 sequential SpMVs (bound: 1.5x)\n";
        ok = false;
      }
    }

    json += "    {\"name\": ";
    obs::json::append_quoted(json, nm.name);
    json += ", \"family\": ";
    obs::json::append_quoted(json, nm.family);
    json += ", \"nnz\": " + std::to_string(m.nnz()) +
            ", \"matrix_traffic_fraction\": ";
    obs::json::append_number(json, f);
    json += ", \"k_results\": [";
    for (std::size_t r = 0; r < results.size(); ++r) {
      const KResult& kr = results[r];
      json += "{\"k\": " + std::to_string(kr.k) + ", \"gflops_spmm\": ";
      obs::json::append_number(json, kr.gflops_spmm);
      json += ", \"gflops_seq\": ";
      obs::json::append_number(json, kr.gflops_seq);
      json += ", \"speedup\": ";
      obs::json::append_number(json, kr.speedup);
      json += ", \"modeled_speedup\": ";
      obs::json::append_number(json, kr.modeled);
      json += "}";
      if (r + 1 < results.size()) json += ", ";
    }
    json += "]}";
    json += (mi + 1 < matrices.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::ofstream out{out_path};
  out << json;
  std::cout << "\nwrote " << out_path << " (sink=" << (static_cast<long long>(sink) & 1)
            << ")\n";
  if (smoke) {
    std::cout << (ok ? "smoke check passed: k=4 SpMM is >= 1.5x of 4 sequential SpMVs\n"
                     : "smoke check FAILED\n");
  }
  return ok ? 0 : 1;
}
