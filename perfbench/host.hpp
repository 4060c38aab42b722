// Host facts every benchmark output records: thread pinning, the last-level
// cache size the host reports, the benchmark's own DRAM triad roof and the
// library's stream_triad_probe() result, plus the process memory high-water
// mark used for peak_rss_mb.
#pragma once

#include <string>

namespace perfbench {

struct HostFacts {
  int threads = 0;
  std::string omp_num_threads;  // environment as the run saw it ("" = unset)
  std::string omp_proc_bind;
  std::string omp_places;
  double llc_bytes = 0.0;
  /// Bytes of each of the three triad arrays (>= 4x llc_bytes at full size).
  double triad_array_bytes = 0.0;
  /// Best-of-repeats a = b + s*c bandwidth over triad_array_bytes arrays.
  double triad_gbs = 0.0;
  /// sparta::stream_triad_probe() — the roof tune_host anchors P_MB on.
  double probe_main_gbs = 0.0;
  double probe_llc_gbs = 0.0;
};

/// Last-level cache size the host reports (sysconf), or 32 MiB if unknown.
double host_llc_bytes();

/// Measure the host facts. `tiny` shrinks the triad arrays to 8 MiB (the
/// self-test); otherwise each array is 4x the reported LLC.
HostFacts measure_host(bool tiny);

/// Reset the resident-set high-water mark to the current RSS. Returns false
/// when the kernel refuses, in which case peak_rss_mb() covers the whole
/// process lifetime.
bool reset_peak_rss();

/// Resident-set high-water mark in MB (1e6 bytes).
double peak_rss_mb();

}  // namespace perfbench
