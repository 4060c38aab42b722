// Persistent-region guard idioms: every write below is legal and the omp.*
// sharing rules must stay quiet. guards() holds the single / tid == 0 /
// uniform-barrier shapes. team_loop() holds the solver engine's: an
// orphaned barrier inside a helper that every thread calls, tid == 0 writes
// to a shared record, and a loop with barriers that every thread leaves on
// its own copy of the same team sum.
#include "kernels/good_kernel.hpp"

int omp_get_thread_num();
int omp_get_num_threads();

namespace fixture {

double guards(int n, double* SPARTA_RESTRICT x, double* SPARTA_RESTRICT y) {
  double stat = 0.0;
  double seconds = 0.0;
  int passes = 0;
  double peak = 0.0;
#pragma omp parallel default(none) shared(x, y, n, stat, seconds, passes, peak) \
    reduction(max : peak)
  {
    const int tid = omp_get_thread_num();
#pragma omp for schedule(static)
    for (int i = 0; i < n; ++i) {
      y[i] = x[i] * 2.0;                  // subscripted: disjoint per thread
      peak = (peak > y[i]) ? peak : y[i]; // max-reduction via self-referencing =
    }
#pragma omp single
    {
      stat = y[0];                        // single: one thread, implicit barrier
    }
    if (tid == 0) {
      seconds += 1.0;                     // tid==0: master-equivalent guard
      ++passes;
    }
    if (stat > 0.0) {
#pragma omp barrier                       // uniform shared condition: all agree
    }
  }
  return stat + seconds + static_cast<double>(passes) + peak;
}

// Every thread calls it equally often, so its orphaned barrier is
// team-uniform. Alternate banks keep a slot from being overwritten before
// every thread has read it.
double team_sum(double* SPARTA_RESTRICT slots, int& bank, int tid, int nt, double partial) {
  double* SPARTA_RESTRICT cur = slots + bank * nt;
  cur[tid] = partial;
#pragma omp barrier
  double sum = 0.0;
  for (int t = 0; t < nt; ++t) sum += cur[t];
  bank ^= 1;
  return sum;
}

struct Record {
  int iterations = 0;
  double residual = 0.0;
};

double team_loop(int n, int max_it, double* SPARTA_RESTRICT slots, double* SPARTA_RESTRICT x) {
  Record record;
#pragma omp parallel default(none) shared(n, max_it, slots, x, record)
  {
    const int tid = omp_get_thread_num();
    const int nt = omp_get_num_threads();
    int bank = 0;
    int iters = 0;
    double xx = 0.0;
    for (int i = tid; i < n; i += nt) xx += x[i] * x[i];
    double rr = team_sum(slots, bank, tid, nt, xx);
    for (int it = 0; it < max_it; ++it) {
      if (rr <= 1.0) break;               // every thread holds the same rr
      for (int i = tid; i < n; i += nt) x[i] *= 0.5;  // subscripted
      xx = 0.0;
      for (int i = tid; i < n; i += nt) xx += x[i] * x[i];
      rr = team_sum(slots, bank, tid, nt, xx);
      iters = it + 1;
#pragma omp barrier                       // ends the iteration on every thread
    }
    if (tid == 0) {
      record.iterations = iters;          // tid==0: one writer of the record
      record.residual = rr;
    }
  }
  return record.residual + static_cast<double>(record.iterations);
}

}  // namespace fixture
