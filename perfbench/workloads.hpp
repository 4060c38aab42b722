// The three closed-loop workloads of the end-to-end solve benchmark and the
// metrics they report. Each run generates its inputs from the seed (outside
// every metric), then drives the public pipeline
//   in-memory CSR, or mm::read_coo + CsrMatrix::from_coo on a .mtx file
//   -> tune_host -> kernels::PreparedSpmv -> engine::SolverEngine
//   -> SolverEngine::cg / bicgstab / spmm
// and checks every result beside its timing. An untraced run reports the
// end-to-end metrics; a traced run repeats the pass with spans and library
// telemetry on and reports the per-layer metrics (perfbench/README.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Budget of a pass: sessions (set-up + work phase) run until it is
  /// spent, at least the workload's minimum session count.
  double seconds = 10.0;
  bool trace = false;
  /// Self-test only: small matrices and an 8 MiB triad.
  bool tiny = false;
  /// Self-test only: corrupt the first result before its check.
  bool perturb = false;
  /// Where generated files and the trace go (created if missing).
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = false;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  /// Context lines: host facts, pinning, matrix sizes, plan records.
  std::vector<std::string> notes;
};

[[nodiscard]] std::vector<std::string_view> workload_names();

/// Run one workload. Throws on unknown workload names or I/O failures.
[[nodiscard]] RunReport run_workload(const RunOptions& opts);

/// The result object: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(const RunReport& report);

}  // namespace perfbench
