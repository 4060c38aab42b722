#include "sim/traffic_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace sparta::sim {

ThreadTally& ThreadTally::operator+=(const ThreadTally& o) {
  cycles += o.cycles;
  stream_bytes += o.stream_bytes;
  x_accesses += o.x_accesses;
  x_misses += o.x_misses;
  x_irregular_misses += o.x_irregular_misses;
  nnz += o.nnz;
  rows += o.rows;
  return *this;
}

index_t distinct_lines(std::span<const index_t> cols, int values_per_line) {
  index_t count = 0;
  index_t last_line = -1;
  for (index_t c : cols) {
    const index_t line = c / values_per_line;
    if (line != last_line) {
      ++count;
      last_line = line;
    }
  }
  return count;
}

ThreadTally simulate_rows(const CsrMatrix& m, RowRange range, const KernelConfig& cfg,
                          const MachineSpec& machine, DeltaWidth delta_width,
                          SetAssocCache& x_cache, std::span<const index_t> empty_rows) {
  ThreadTally t;
  const int vpl = machine.values_per_line();
  // Sequential-miss detection: a miss on the line right after the previous
  // x access is caught by hardware stream prefetchers and exposes no
  // latency. Tracked across rows within this thread's range.
  std::int64_t prev_line = -2;
  auto touch = [&](index_t element) {
    ++t.x_accesses;
    const auto line =
        static_cast<std::int64_t>(static_cast<std::uint64_t>(element) * sizeof(value_t) /
                                  machine.cache_line_bytes);
    if (!x_cache.access(static_cast<std::uint64_t>(element) * sizeof(value_t))) {
      ++t.x_misses;
      if (line != prev_line && line != prev_line + 1) ++t.x_irregular_misses;
    }
    prev_line = line;
  };
  auto next_empty = std::lower_bound(empty_rows.begin(), empty_rows.end(), range.begin);
  for (index_t i = range.begin; i < range.end; ++i) {
    std::span<const index_t> cols;
    if (next_empty != empty_rows.end() && *next_empty == i) {
      ++next_empty;
    } else {
      cols = m.row_cols(i);
    }
    const auto len = static_cast<index_t>(cols.size());
    const index_t lines = cfg.vectorized ? distinct_lines(cols, vpl) : 0;

    t.cycles += row_cycles(len, lines, cfg, machine);
    t.stream_bytes += row_stream_bytes(len, cfg, delta_width);
    t.nnz += len;
    ++t.rows;

    switch (cfg.x_access) {
      case XAccess::kIndirect:
        for (index_t c : cols) touch(c);
        break;
      case XAccess::kRegularized:
      case XAccess::kUnitStride:
        // Both micro-benchmarks read x[i] len times: perfectly regular, one
        // compulsory (prefetchable) line fetch per vpl rows.
        for (index_t k = 0; k < len; ++k) touch(i);
        break;
    }
  }
  return t;
}

double spmm_stream_bytes(const CsrMatrix& m, int width) {
  const auto nrows = static_cast<double>(m.nrows());
  const auto ncols = static_cast<double>(m.ncols());
  const auto nnz = static_cast<double>(m.nnz());
  const double matrix = (nrows + 1.0) * sizeof(offset_t) +
                        nnz * (sizeof(index_t) + sizeof(value_t));
  const double per_column = (ncols + nrows) * sizeof(value_t);
  return matrix + static_cast<double>(width) * per_column;
}

double matrix_traffic_fraction(const CsrMatrix& m) {
  const double spmv = spmm_stream_bytes(m, 1);
  const double vectors = static_cast<double>(m.ncols() + m.nrows()) * sizeof(value_t);
  return spmv > 0.0 ? (spmv - vectors) / spmv : 0.0;
}

namespace {

/// Matrix bytes the symmetric (lower-triangle + dense-diagonal) kernel
/// streams for `m`. O(nnz) classification walk; validates squareness and
/// off-diagonal pairing so the model is never quoted for a matrix the
/// format would reject.
double sym_matrix_bytes(const CsrMatrix& m) {
  if (m.nrows() != m.ncols()) {
    throw std::invalid_argument{"sym stream model: matrix must be square"};
  }
  offset_t lower = 0;
  offset_t upper = 0;
  for (index_t i = 0; i < m.nrows(); ++i) {
    for (const index_t c : m.row_cols(i)) {
      if (c < i) {
        ++lower;
      } else if (c > i) {
        ++upper;
      }
    }
  }
  if (lower != upper) {
    throw std::invalid_argument{"sym stream model: pattern is not symmetric"};
  }
  const auto nrows = static_cast<double>(m.nrows());
  return (nrows + 1.0) * sizeof(offset_t) +
         static_cast<double>(lower) * (sizeof(index_t) + sizeof(value_t)) +
         nrows * sizeof(value_t);
}

}  // namespace

double sym_matrix_stream_ratio(const CsrMatrix& m) {
  const auto nrows = static_cast<double>(m.nrows());
  const auto nnz = static_cast<double>(m.nnz());
  const double general =
      (nrows + 1.0) * sizeof(offset_t) + nnz * (sizeof(index_t) + sizeof(value_t));
  return general > 0.0 ? sym_matrix_bytes(m) / general : 1.0;
}

}  // namespace sparta::sim
