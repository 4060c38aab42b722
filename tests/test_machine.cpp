// Tests for the platform models: paper Table III values (scaled), derived
// quantities, the host spec's sysconf cache sizes, and the host STREAM probe
// with the process's host roof.
#include <gtest/gtest.h>
#include <unistd.h>

#include <string_view>

#include "machine/machine_spec.hpp"
#include "machine/stream_probe.hpp"
#include "obs/telemetry.hpp"

namespace sparta {
namespace {

TEST(MachineSpec, KncMatchesTableIII) {
  const auto m = knc();
  EXPECT_EQ(m.name, "KNC");
  EXPECT_EQ(m.cores, 57);
  EXPECT_EQ(m.smt, 4);
  EXPECT_EQ(m.threads(), 228);
  EXPECT_DOUBLE_EQ(m.clock_ghz, 1.10);
  EXPECT_DOUBLE_EQ(m.stream_main_gbs, 128.0);
  EXPECT_DOUBLE_EQ(m.stream_llc_gbs, 140.0);
  EXPECT_EQ(m.simd_doubles(), 8);
  // 30 MiB aggregate L2, scaled by kCacheScale.
  EXPECT_EQ(m.llc_bytes, static_cast<std::size_t>((30ull << 20) * kCacheScale));
}

TEST(MachineSpec, KnlMatchesTableIII) {
  const auto m = knl();
  EXPECT_EQ(m.cores, 68);
  EXPECT_EQ(m.threads(), 272);
  EXPECT_DOUBLE_EQ(m.clock_ghz, 1.40);
  EXPECT_DOUBLE_EQ(m.stream_main_gbs, 395.0);  // flat-mode MCDRAM
  EXPECT_DOUBLE_EQ(m.stream_llc_gbs, 570.0);
  EXPECT_EQ(m.simd_doubles(), 8);
}

TEST(MachineSpec, BroadwellMatchesTableIII) {
  const auto m = broadwell();
  EXPECT_EQ(m.cores, 22);
  EXPECT_EQ(m.smt, 2);
  EXPECT_EQ(m.threads(), 44);
  EXPECT_DOUBLE_EQ(m.clock_ghz, 2.20);
  EXPECT_DOUBLE_EQ(m.stream_main_gbs, 60.0);
  EXPECT_EQ(m.simd_doubles(), 4);
  EXPECT_EQ(m.llc_bytes, static_cast<std::size_t>((55ull << 20) * kCacheScale));
}

TEST(MachineSpec, PaperPlatformsInOrder) {
  const auto& p = paper_platforms();
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0].name, "KNC");
  EXPECT_EQ(p[1].name, "KNL");
  EXPECT_EQ(p[2].name, "Broadwell");
}

TEST(MachineSpec, ArchitecturalOrderings) {
  // The relationships the paper's analysis relies on.
  EXPECT_GT(knl().stream_main_gbs, knc().stream_main_gbs);
  EXPECT_GT(knc().stream_main_gbs, broadwell().stream_main_gbs);
  EXPECT_GT(knc().dram_latency_ns, broadwell().dram_latency_ns);  // order-of-magnitude gap
  EXPECT_GT(knc().issue_penalty, broadwell().issue_penalty);      // in-order vs OoO
  EXPECT_GT(broadwell().latency_overlap, knc().latency_overlap);
  EXPECT_GT(knc().threads(), broadwell().threads());
}

TEST(MachineSpec, XCacheBytesIsPositiveAndBounded) {
  for (const auto& m : paper_platforms()) {
    const auto b = m.x_cache_bytes_per_thread();
    EXPECT_GE(b, 2 * m.cache_line_bytes);
    EXPECT_LT(b, m.l1_bytes + m.l2_slice_bytes + m.llc_bytes);
  }
}

TEST(MachineSpec, ValuesPerLine) {
  EXPECT_EQ(knc().values_per_line(), 8);
}

TEST(MachineSpec, HostMachineHasSaneDefaults) {
  const auto m = host_machine(false);
  EXPECT_EQ(m.name, "host");
  EXPECT_GE(m.cores, 1);
  EXPECT_GT(m.stream_main_gbs, 0.0);
  EXPECT_GT(m.clock_ghz, 0.0);
}

TEST(MachineSpec, HostCacheSizesComeFromSysconf) {
  const auto reported = [](int name) {
    const long v = sysconf(name);
    return v > 0 ? static_cast<std::size_t>(v) : std::size_t{0};
  };
  const std::size_t l1 = reported(_SC_LEVEL1_DCACHE_SIZE);
  const std::size_t l2 = reported(_SC_LEVEL2_CACHE_SIZE);
  const std::size_t l3 = reported(_SC_LEVEL3_CACHE_SIZE);
  const auto m = host_machine(false);
  // The LLC is L3, else L2, else 8 MiB; no kCacheScale on the host.
  EXPECT_EQ(m.llc_bytes, l3 > 0 ? l3 : (l2 > 0 ? l2 : std::size_t{8} << 20));
  EXPECT_EQ(m.l2_slice_bytes, l2 > 0 ? l2 : std::size_t{512} << 10);
  EXPECT_EQ(m.l1_bytes, l1 > 0 ? l1 : std::size_t{32} << 10);
  EXPECT_EQ(host_machine(true).llc_bytes, m.llc_bytes);
}

/// Telemetry on for the scope, restored after it.
struct TelemetryOn {
  bool saved = obs::enabled();
  TelemetryOn() { obs::set_enabled(true); }
  ~TelemetryOn() { obs::set_enabled(saved); }
};

/// Probe runs counted so far in this process (while telemetry was on).
double probe_runs() {
  for (const auto& s : obs::Registry::global().snapshot()) {
    if (s.name == std::string_view{"machine.stream_probe.calls"}) return s.value;
  }
  return 0.0;
}

TEST(StreamProbe, ReportsPositiveBandwidth) {
  const auto r = stream_triad_probe(2);
  EXPECT_GT(r.main_gbs, 0.0);
  EXPECT_GT(r.llc_gbs, 0.0);
}

TEST(StreamProbe, CountsEveryRun) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const TelemetryOn guard;
  const double before = probe_runs();
  (void)stream_triad_probe(1, 2);
  (void)stream_triad_probe(1, 2);
  EXPECT_EQ(probe_runs() - before, 2.0);
}

TEST(HostRoof, ProbesOncePerTeamSize) {
  const TelemetryOn guard;
  const double before = probe_runs();
  const StreamResult first = host_roof(1);
  const StreamResult again = host_roof(1);
  EXPECT_GT(first.main_gbs, 0.0);
  EXPECT_GT(first.llc_gbs, 0.0);
  // The same main reading, not a second one that happens to agree; the
  // LLC set is swept again and only a better reading replaces the first.
  EXPECT_EQ(again.main_gbs, first.main_gbs);
  EXPECT_GE(again.llc_gbs, first.llc_gbs);
  if constexpr (obs::kCompiledIn) {
    EXPECT_LE(probe_runs() - before, 1.0);
  }
  // Another team size takes a reading of its own, once.
  const double one_size = probe_runs();
  const StreamResult two = host_roof(2);
  EXPECT_EQ(host_roof(2).main_gbs, two.main_gbs);
  if constexpr (obs::kCompiledIn) {
    EXPECT_LE(probe_runs() - one_size, 1.0);
  }
}

TEST(HostRoof, FeedsHostMachine) {
  const auto m = host_machine(true);
  const StreamResult roof = host_roof(m.cores);
  EXPECT_GT(m.stream_main_gbs, 0.0);
  EXPECT_GT(m.stream_llc_gbs, 0.0);
  EXPECT_EQ(m.stream_main_gbs, roof.main_gbs);
  EXPECT_LE(m.stream_llc_gbs, roof.llc_gbs);  // the later call may have read a better LLC sweep
  EXPECT_EQ(host_roof().main_gbs, roof.main_gbs);  // 0 = omp_get_max_threads() = cores
}

}  // namespace
}  // namespace sparta
