// Fixture: omp.hot-critical and omp.unpadded-atomic must fire — serializing
// constructs and false-sharing atomics in a hot module.
#include <atomic>

namespace fixture {

std::atomic<long> hits{0};  // omp.unpadded-atomic: no alignas padding

inline void serialized(int n, const double* v, double* total) {
#pragma omp parallel for default(none) shared(v, n, total)
  for (int i = 0; i < n; ++i) {
#pragma omp critical  // omp.hot-critical
    {
      total[0] += v[i];
    }
#pragma omp atomic    // omp.hot-critical (atomic form)
    total[1] += v[i];
  }
}

}  // namespace fixture
