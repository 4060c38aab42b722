#include "machine/machine_spec.hpp"

#include <omp.h>
#include <unistd.h>

#include <algorithm>

#include "machine/stream_probe.hpp"

namespace sparta {

namespace {
constexpr std::size_t scaled(std::size_t bytes) {
  return static_cast<std::size_t>(static_cast<double>(bytes) * kCacheScale);
}

/// A sysconf cache size in bytes, or 0 when the host reports none.
std::size_t sysconf_bytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}
}  // namespace

std::size_t MachineSpec::x_cache_bytes_per_thread() const {
  const std::size_t l2_per_thread = smt > 0 ? l2_slice_bytes / static_cast<std::size_t>(smt) : 0;
  const std::size_t llc_per_thread =
      threads() > 0 ? llc_bytes / static_cast<std::size_t>(threads()) : 0;
  const auto total = static_cast<double>(l1_bytes + l2_per_thread + llc_per_thread);
  return std::max<std::size_t>(static_cast<std::size_t>(0.5 * total), 2 * cache_line_bytes);
}

MachineSpec knc() {
  MachineSpec m;
  m.name = "KNC";
  m.cores = 57;
  m.smt = 4;
  m.clock_ghz = 1.10;
  m.issue_penalty = 2.0;  // in-order Pentium-class cores
  m.l1_bytes = scaled(32ull << 10);
  m.l2_slice_bytes = scaled(512ull << 10);   // 57 x 512 KiB = 30 MiB aggregate
  m.llc_bytes = scaled(30ull << 20);
  m.stream_main_gbs = 128.0;
  m.stream_llc_gbs = 140.0;
  m.core_bw_gbs = 4.5;
  m.vector_bw_boost = 2.0;   // scalar loads starve the in-order pipeline
  m.dram_latency_ns = 300.0;  // an order of magnitude above multicores (paper SIV-C)
  m.llc_latency_ns = 80.0;
  m.latency_overlap = 0.30;   // in-order; SMT4 is the only latency-hiding tool
  m.simd_bits = 512;
  m.gather_cpe = 1.0;         // microcoded vgatherd: ~1 uop per distinct line
  return m;
}

MachineSpec knl() {
  MachineSpec m;
  m.name = "KNL";
  m.cores = 68;
  m.smt = 4;
  m.clock_ghz = 1.40;
  m.issue_penalty = 1.3;  // 2-wide OoO Silvermont-class cores
  m.l1_bytes = scaled(32ull << 10);
  m.l2_slice_bytes = scaled(512ull << 10);   // 1 MiB per 2-core tile
  m.llc_bytes = scaled(34ull << 20);
  m.stream_main_gbs = 395.0;  // flat-mode MCDRAM
  m.stream_llc_gbs = 570.0;
  m.core_bw_gbs = 12.0;
  m.vector_bw_boost = 1.3;
  m.dram_latency_ns = 170.0;
  m.llc_latency_ns = 50.0;
  m.latency_overlap = 0.50;
  m.simd_bits = 512;
  m.gather_cpe = 0.8;         // AVX-512 hardware gather
  return m;
}

MachineSpec broadwell() {
  MachineSpec m;
  m.name = "Broadwell";
  m.cores = 22;
  m.smt = 2;
  m.clock_ghz = 2.20;
  m.issue_penalty = 1.0;  // aggressive out-of-order core
  m.l1_bytes = scaled(32ull << 10);
  m.l2_slice_bytes = scaled(256ull << 10);
  m.llc_bytes = scaled(55ull << 20);
  m.stream_main_gbs = 60.0;
  m.stream_llc_gbs = 200.0;
  m.core_bw_gbs = 12.0;
  m.vector_bw_boost = 1.0;   // OoO core already saturates its bandwidth
  m.dram_latency_ns = 90.0;
  m.llc_latency_ns = 25.0;
  m.latency_overlap = 0.85;   // deep OoO window + L2 prefetchers
  m.simd_bits = 256;
  m.gather_cpe = 0.7;
  return m;
}

const std::vector<MachineSpec>& paper_platforms() {
  static const std::vector<MachineSpec> kPlatforms{knc(), knl(), broadwell()};
  return kPlatforms;
}

MachineSpec host_machine(bool measure_bandwidth) {
  MachineSpec m;
  m.name = "host";
  m.cores = std::max(1, omp_get_max_threads());
  m.smt = 1;
  // Cache sizes as the host reports them, unscaled: the LLC is L3, else L2,
  // else 8 MiB; L2 and L1d keep 512 and 32 KiB where sysconf reports none.
  const std::size_t l1 = sysconf_bytes(_SC_LEVEL1_DCACHE_SIZE);
  const std::size_t l2 = sysconf_bytes(_SC_LEVEL2_CACHE_SIZE);
  const std::size_t l3 = sysconf_bytes(_SC_LEVEL3_CACHE_SIZE);
  m.l1_bytes = l1 > 0 ? l1 : 32ull << 10;
  m.l2_slice_bytes = l2 > 0 ? l2 : 512ull << 10;
  m.llc_bytes = l3 > 0 ? l3 : (l2 > 0 ? l2 : 8ull << 20);
  // Guesses, not measured: the clock, the issue quality, the bandwidth of
  // one core, the latencies and their overlap, and the SIMD width. The two
  // STREAM fields hold placeholders until measure_bandwidth reads the roof.
  m.clock_ghz = 2.0;
  m.issue_penalty = 1.0;
  m.stream_main_gbs = 10.0;
  m.stream_llc_gbs = 30.0;
  m.core_bw_gbs = 10.0;
  m.dram_latency_ns = 100.0;
  m.llc_latency_ns = 30.0;
  m.latency_overlap = 0.85;
  m.simd_bits = 256;
  if (measure_bandwidth) {
    const StreamResult r = host_roof(m.cores);
    if (r.main_gbs > 0.0) m.stream_main_gbs = r.main_gbs;
    if (r.llc_gbs > 0.0) m.stream_llc_gbs = r.llc_gbs;
  }
  return m;
}

}  // namespace sparta
