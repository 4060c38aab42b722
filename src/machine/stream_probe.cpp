#include "machine/stream_probe.hpp"

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <mutex>

#include "common/numa.hpp"
#include "common/timer.hpp"
#include "obs/telemetry.hpp"

namespace sparta {

namespace {

/// One triad sweep on `nt` threads; returns GB/s for the best repetition.
double triad_gbs(std::size_t n, int repeats, int nt) {
  // Untouched storage, first written by the threads that later sweep each
  // range: a serial fill from the calling thread cost as much as the timed
  // repetitions.
  NumaArray<double> a(n), b(n), c(n);
  double* const pa = a.data();
  double* const pb = b.data();
  double* const pc = c.data();
  const auto sn = static_cast<std::ptrdiff_t>(n);
#pragma omp parallel for default(none) shared(pa, pb, pc, sn) schedule(static) num_threads(nt)
  for (std::ptrdiff_t i = 0; i < sn; ++i) {
    pa[i] = 0.0;
    pb[i] = 1.0;
    pc[i] = 2.0;
  }
  const double scalar = 3.0;
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Timer t;
#pragma omp parallel for default(none) shared(pa, pb, pc, scalar, sn) schedule(static) \
    num_threads(nt)
    for (std::ptrdiff_t i = 0; i < sn; ++i) {
      pa[i] = pb[i] + scalar * pc[i];
    }
    const double sec = t.seconds();
    // 3 arrays x 8 bytes per element move per iteration.
    const double gbs = 3.0 * 8.0 * static_cast<double>(n) / sec * 1e-9;
    best = std::max(best, gbs);
  }
  // Keep the result observable so the loop cannot be elided.
  volatile double sink = a[n / 2];
  (void)sink;
  return best;
}

int team_size(int threads) { return threads > 0 ? threads : std::max(1, omp_get_max_threads()); }

/// Repetitions of the probe behind host_roof().
constexpr int kRoofRepeats = 5;

/// Elements of each array of the LLC-resident set: 1.5 MiB in all,
/// L2/L3-resident.
constexpr std::size_t kLlcElems = (3ull << 19) / (3 * sizeof(double));

}  // namespace

StreamResult stream_triad_probe(int repeats, int threads) {
  obs::Registry::global().counter("machine.stream_probe.calls").add();
  const int nt = team_size(threads);
  StreamResult r;
  // 64 MiB working set: beyond the private caches, but not beyond every LLC.
  // On a host with a 105 MiB LLC it stays cache-resident, and `main_gbs`
  // reads LLC bandwidth there. A DRAM-resident set of 4x the LLC would add
  // more than 1.2 GB to the peak RSS of a process on such a host.
  r.main_gbs = triad_gbs((64ull << 20) / (3 * sizeof(double)), repeats, nt);
  r.llc_gbs = triad_gbs(kLlcElems, repeats * 4, nt);
  return r;
}

StreamResult host_roof(int threads) {
  static std::mutex mutex;
  static std::map<int, StreamResult> roofs;  // guarded by `mutex`
  const int nt = team_size(threads);
  const std::lock_guard lock{mutex};
  auto it = roofs.find(nt);
  if (it == roofs.end()) {
    it = roofs.emplace(nt, stream_triad_probe(kRoofRepeats, nt)).first;
  } else {
    // The LLC set sweeps in well under a millisecond, so every later call
    // sweeps it again and keeps the best: a first reading taken while one
    // or two vCPUs ran 2-4x slower would otherwise hold the LLC roof low
    // for the whole process.
    it->second.llc_gbs =
        std::max(it->second.llc_gbs, triad_gbs(kLlcElems, kRoofRepeats * 4, nt));
  }
  return it->second;
}

}  // namespace sparta
