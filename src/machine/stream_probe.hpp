// Host STREAM-triad bandwidth probe (McCalpin-style) and the process's host
// roof. The paper's Table III reports STREAM triad for each platform with
// DRAM-resident and LLC-resident working sets; we measure both on the host
// the same way. The host tuner (tune_host), host_machine(true) and the
// tools read the roof, which takes one probe per team size and keeps it
// for the rest of the process, refreshing only its LLC reading (DESIGN.md
// §10).
#pragma once

namespace sparta {

struct StreamResult {
  /// Triad bandwidth with a 64 MiB working set (GB/s): DRAM only on a host
  /// whose LLC is smaller.
  double main_gbs = 0.0;
  /// Triad bandwidth with an LLC-sized working set (GB/s).
  double llc_gbs = 0.0;
};

/// Run a(i) = b(i) + s*c(i) over large and small arrays on a team of
/// `threads` threads (0 = omp_get_max_threads()) and report the best of
/// `repeats` timings. The arrays are first-touched by the threads that
/// sweep them; one call at repeats = 3 costs about 12-25 ms on a 4-vCPU VM.
/// Every call runs the probe and counts it in the telemetry counter
/// `machine.stream_probe.calls`.
StreamResult stream_triad_probe(int repeats = 5, int threads = 0);

/// The process's host roof for a team of `threads` threads
/// (0 = omp_get_max_threads()): the best of 5 repetitions of
/// stream_triad_probe(), run on the first call for that team size, so a
/// process pays for one probe per team size. Later calls return the same
/// `main_gbs`; they sweep the LLC-resident set again (under a millisecond,
/// not counted as a probe run) and keep the best `llc_gbs` seen, so the LLC
/// reading only rises. Kept per team size because the bandwidth depends on
/// how many threads stream. Thread-safe.
StreamResult host_roof(int threads = 0);

}  // namespace sparta
