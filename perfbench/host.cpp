#include "host.hpp"

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "common/timer.hpp"
#include "machine/stream_probe.hpp"

namespace perfbench {

namespace {

std::string env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string{v} : std::string{};
}

/// STREAM triad a = b + s*c over three n-element arrays, first-touched by
/// the threads that later stream them; best of `repeats`, counting 3 arrays
/// of traffic per pass (STREAM convention, no write-allocate).
double triad_gbs(std::size_t n, int repeats) {
  std::unique_ptr<double[]> a{new double[n]};
  std::unique_ptr<double[]> b{new double[n]};
  std::unique_ptr<double[]> c{new double[n]};
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
  const auto len = static_cast<long>(n);
#pragma omp parallel for schedule(static) default(none) shared(pa, pb, pc, len)
  for (long i = 0; i < len; ++i) {
    pa[i] = 0.0;
    pb[i] = 1.0;
    pc[i] = 2.0;
  }
  constexpr double kScalar = 3.0;
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const sparta::Timer t;
#pragma omp parallel for schedule(static) default(none) shared(pa, pb, pc, len)
    for (long i = 0; i < len; ++i) pa[i] = pb[i] + kScalar * pc[i];
    const double s = t.seconds();
    if (s > 0.0) best = std::max(best, 3.0 * sizeof(double) * static_cast<double>(n) / s * 1e-9);
  }
  if (pa[n / 2] != 1.0 + kScalar * 2.0) throw std::runtime_error{"triad: wrong result"};
  return best;
}

}  // namespace

double host_llc_bytes() {
  for (int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<double>(v);
  }
  return 32.0 * (1 << 20);
}

HostFacts measure_host(bool tiny) {
  HostFacts h;
  h.threads = omp_get_max_threads();
  h.omp_num_threads = env_or_empty("OMP_NUM_THREADS");
  h.omp_proc_bind = env_or_empty("OMP_PROC_BIND");
  h.omp_places = env_or_empty("OMP_PLACES");
  h.llc_bytes = host_llc_bytes();
  const double array_bytes = tiny ? 8.0 * (1 << 20) : 4.0 * h.llc_bytes;
  const auto n = static_cast<std::size_t>(array_bytes / sizeof(double)) + 1;
  h.triad_array_bytes = static_cast<double>(n * sizeof(double));
  h.triad_gbs = triad_gbs(n, 5);
  const sparta::StreamResult probe = sparta::stream_triad_probe(3);
  h.probe_main_gbs = probe.main_gbs;
  h.probe_llc_gbs = probe.llc_gbs;
  return h;
}

bool reset_peak_rss() {
  std::ofstream f{"/proc/self/clear_refs"};
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f{"/proc/self/status"};
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0 * 1e-6;
  }
  return 0.0;
}

}  // namespace perfbench
