#include "machine/stream_probe.hpp"

#include <algorithm>
#include <cstddef>

#include "common/numa.hpp"
#include "common/timer.hpp"

namespace sparta {

namespace {

/// One triad sweep; returns GB/s for the best repetition.
double triad_gbs(std::size_t n, int repeats) {
  // Untouched storage, first written by the threads that later sweep each
  // range: a serial fill from the calling thread cost as much as the timed
  // repetitions.
  NumaArray<double> a(n), b(n), c(n);
  double* const pa = a.data();
  double* const pb = b.data();
  double* const pc = c.data();
  const auto sn = static_cast<std::ptrdiff_t>(n);
#pragma omp parallel for default(none) shared(pa, pb, pc, sn) schedule(static)
  for (std::ptrdiff_t i = 0; i < sn; ++i) {
    pa[i] = 0.0;
    pb[i] = 1.0;
    pc[i] = 2.0;
  }
  const double scalar = 3.0;
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Timer t;
#pragma omp parallel for default(none) shared(pa, pb, pc, scalar, sn) schedule(static)
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

}  // namespace

StreamResult stream_triad_probe(int repeats) {
  StreamResult r;
  // 64 MiB working set: beyond the private caches, but not beyond every LLC.
  // On a host with a 300 MiB LLC it stays cache-resident, and `main_gbs`
  // reads LLC bandwidth there.
  r.main_gbs = triad_gbs((64ull << 20) / (3 * sizeof(double)), repeats);
  // 1.5 MiB working set: L2/L3-resident.
  r.llc_gbs = triad_gbs((3ull << 19) / (3 * sizeof(double)), repeats * 4);
  return r;
}

}  // namespace sparta
