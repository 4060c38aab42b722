// Per-thread traffic & compute accounting.
//
// Walks a thread's row range once, replaying the x-vector access stream
// through a private SetAssocCache while accumulating streamed bytes and the
// kernel-model cycle count. This is the measurement half of the simulator;
// exec_model turns the numbers into time.
#pragma once

#include <cstdint>
#include <span>

#include "machine/cache_model.hpp"
#include "sim/kernel_model.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

namespace sparta::sim {

/// Raw per-thread tallies for one simulated kernel invocation.
struct ThreadTally {
  double cycles = 0.0;        // compute cycles excl. memory stalls
  double stream_bytes = 0.0;  // matrix/y/rowptr streaming traffic
  std::uint64_t x_accesses = 0;
  std::uint64_t x_misses = 0;
  /// Subset of x_misses whose line is not the sequential successor of the
  /// previous x access — the misses hardware prefetchers cannot hide and
  /// that therefore expose latency (the ML-class signal).
  std::uint64_t x_irregular_misses = 0;
  offset_t nnz = 0;
  index_t rows = 0;

  ThreadTally& operator+=(const ThreadTally& o);
};

/// Simulate `range` of `m` under `cfg` with the given private cache.
/// `delta_width` is only consulted when cfg.delta is set. The rows in
/// `empty_rows` (ascending) are walked as empty rows: the long rows of a
/// decomposed plan, whose nonzeros the cooperative pass accounts for.
/// The cache carries state across calls, modeling a warm cache when the
/// same thread processes several chunks.
ThreadTally simulate_rows(const CsrMatrix& m, RowRange range, const KernelConfig& cfg,
                          const MachineSpec& machine, DeltaWidth delta_width,
                          SetAssocCache& x_cache, std::span<const index_t> empty_rows);

/// Count the distinct cache lines touched by a row's x accesses — the input
/// of the gather-cost model. Columns are sorted within a CSR row, so a
/// single sweep suffices.
index_t distinct_lines(std::span<const index_t> cols, int values_per_line);

/// Streamed bytes of one width-k block multiply (Y = A X) over `m` in CSR
/// form: the matrix arrays (rowptr/colind/values) once — the SpMM
/// amortization — plus the dense x read and y written per operand column.
/// Width 1 is the plain SpMV stream.
double spmm_stream_bytes(const CsrMatrix& m, int width);

/// Fraction of the width-1 stream the matrix arrays account for — the f in
/// CostModelParams::spmm_speedup. Approaches 1 for nnz-dominated matrices
/// (where SpMM amortizes best) and 0 for hypersparse ones.
double matrix_traffic_fraction(const CsrMatrix& m);

/// Matrix-stream compression of symmetric storage: (symmetric matrix
/// bytes) / (general CSR matrix bytes), dense operands excluded. The
/// ISSUE-10 acceptance gate expects <= 0.6 on the SPD suite; approaches
/// ~0.56 for nnz-dominated symmetric matrices (half the colind/values plus
/// the dense diagonal) and 1 for diagonal ones.
double sym_matrix_stream_ratio(const CsrMatrix& m);

}  // namespace sparta::sim
