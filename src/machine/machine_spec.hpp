// Platform descriptions — paper Table III plus the micro-architectural
// constants the execution model needs (miss latency, latency overlap, SMT).
//
// The reproduction container has a single CPU core, so the three paper
// platforms are *modeled*: every figure-generating experiment runs on the
// analytical simulator parameterized by these specs. Because the generated
// matrix suite is roughly 16x smaller than the paper's SuiteSparse
// selection (to fit container memory and simulation budget), cache
// capacities are scaled down by the same factor, preserving each matrix's
// relation to the cache hierarchy (see DESIGN.md, substitutions).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sparta {

/// Cache-capacity scale factor applied to the paper platforms (see above).
inline constexpr double kCacheScale = 1.0 / 16.0;

/// One modeled (or measured) execution platform.
struct MachineSpec {
  std::string name;

  // --- Topology ---------------------------------------------------------
  int cores = 1;
  /// Hardware threads used per core (paper: 4 on both Phis, 2 on Broadwell).
  int smt = 1;
  /// Total threads used by a parallel kernel.
  [[nodiscard]] int threads() const { return cores * smt; }

  // --- Clock & issue ----------------------------------------------------
  double clock_ghz = 1.0;
  /// Multiplier on kernel cycle costs capturing issue quality
  /// (in-order KNC pays ~2x the cycles of an aggressive OoO core).
  double issue_penalty = 1.0;

  // --- Cache hierarchy (bytes; kCacheScale-scaled on the paper platforms) -
  std::size_t l1_bytes = 32 << 10;
  /// Private-per-core slice of the mid-level cache.
  std::size_t l2_slice_bytes = 0;
  /// Shared last-level capacity (aggregate L2 on the Phis, L3 on Broadwell).
  std::size_t llc_bytes = 0;
  std::size_t cache_line_bytes = 64;

  // --- Memory system ----------------------------------------------------
  /// STREAM-triad sustainable bandwidth, working set in DRAM (GB/s).
  double stream_main_gbs = 10.0;
  /// STREAM-triad bandwidth when the working set fits in the LLC (GB/s).
  double stream_llc_gbs = 20.0;
  /// Bandwidth one core can draw by itself (GB/s).
  double core_bw_gbs = 10.0;
  /// Multiplier on core_bw when the kernel uses vector memory operations —
  /// on in-order cores scalar loads cannot keep the load/store unit busy,
  /// so vectorization raises a single thread's achievable bandwidth.
  double vector_bw_boost = 1.0;
  /// Average DRAM miss latency (ns).
  double dram_latency_ns = 100.0;
  /// Average LLC hit latency for a private-cache miss (ns).
  double llc_latency_ns = 30.0;
  /// Fraction of miss latency hidden by out-of-order execution, MLP and SMT
  /// interleaving (0 = fully exposed, 1 = fully hidden).
  double latency_overlap = 0.5;

  // --- SIMD -------------------------------------------------------------
  int simd_bits = 256;
  [[nodiscard]] int simd_doubles() const { return simd_bits / 64; }
  /// Extra cycles per element for a vector gather relative to a unit-stride
  /// vector load (Phi gathers are microcoded and expensive).
  double gather_cpe = 1.0;

  // --- Derived helpers ----------------------------------------------------
  /// Effective private cache capacity available to x-vector reuse per
  /// thread: L1 + this thread's share of the private L2 slice and of the
  /// shared LLC. The streaming arrays (values/colind) continuously evict,
  /// so only a fraction is usable; the 0.5 factor models that pressure.
  [[nodiscard]] std::size_t x_cache_bytes_per_thread() const;

  /// Values of `value_t` per cache line.
  [[nodiscard]] int values_per_line() const {
    return static_cast<int>(cache_line_bytes / sizeof(double));
  }
};

/// Paper Table III platforms (cache sizes pre-scaled by kCacheScale).
MachineSpec knc();        // Intel Xeon Phi 3120P (Knights Corner)
MachineSpec knl();        // Intel Xeon Phi 7250 (Knights Landing, flat HBM)
MachineSpec broadwell();  // Intel Xeon E5-2699 v4

/// All three modeled platforms, in paper order.
const std::vector<MachineSpec>& paper_platforms();

/// A spec describing the actual host this binary runs on: cores from
/// OpenMP; cache sizes from sysconf, unscaled (LLC = L3, else L2, else
/// 8 MiB; L2 and L1d where reported, else 512 and 32 KiB); STREAM
/// bandwidths from the process's host_roof() for a team of `cores` threads
/// when `measure_bandwidth`, placeholders otherwise. The clock, latencies
/// and SIMD width are guesses, not measurements.
MachineSpec host_machine(bool measure_bandwidth = false);

}  // namespace sparta
