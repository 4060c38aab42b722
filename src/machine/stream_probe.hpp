// Host STREAM-triad bandwidth probe (McCalpin-style), used to fill the
// `host` MachineSpec. The paper's Table III reports STREAM triad for each
// platform with DRAM-resident and LLC-resident working sets; we measure both
// on the host the same way.
#pragma once

namespace sparta {

struct StreamResult {
  /// Triad bandwidth with a 64 MiB working set (GB/s): DRAM only on a host
  /// whose LLC is smaller.
  double main_gbs = 0.0;
  /// Triad bandwidth with an LLC-sized working set (GB/s).
  double llc_gbs = 0.0;
};

/// Run a(i) = b(i) + s*c(i) over large and small arrays and report the best
/// of `repeats` timings. The arrays are first-touched by the threads that
/// sweep them; one call at repeats = 3 costs about 12-25 ms on a 4-vCPU VM.
StreamResult stream_triad_probe(int repeats = 5);

}  // namespace sparta
