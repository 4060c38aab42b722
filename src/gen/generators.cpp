#include "gen/generators.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/prng.hpp"

namespace sparta::gen {

namespace {

/// Draw `count` distinct columns from [lo, hi) into `out` (sorted).
void draw_distinct(Xoshiro256& rng, index_t lo, index_t hi, index_t count,
                   std::vector<index_t>& out) {
  out.clear();
  const auto range = static_cast<std::uint64_t>(hi - lo);
  count = std::min<index_t>(count, hi - lo);
  if (count <= 0) return;
  if (static_cast<std::uint64_t>(count) * 3 > range) {
    // Dense draw: Floyd's algorithm degenerates; sample by inclusion.
    for (index_t c = lo; c < hi; ++c) {
      const auto remaining = static_cast<std::uint64_t>(hi - c);
      const auto needed = static_cast<std::uint64_t>(count) - out.size();
      if (rng.bounded(remaining) < needed) out.push_back(c);
      if (out.size() == static_cast<std::size_t>(count)) break;
    }
  } else {
    std::set<index_t> picked;
    while (picked.size() < static_cast<std::size_t>(count)) {
      picked.insert(lo + static_cast<index_t>(rng.bounded(range)));
    }
    out.assign(picked.begin(), picked.end());
  }
}

value_t random_value(Xoshiro256& rng) { return rng.uniform(-1.0, 1.0); }

}  // namespace

CsrMatrix stencil5(index_t nx, index_t ny) {
  const index_t n = nx * ny;
  CooMatrix coo{n, n};
  coo.reserve(static_cast<std::size_t>(n) * 5);
  for (index_t y = 0; y < ny; ++y) {
    for (index_t x = 0; x < nx; ++x) {
      const index_t i = y * nx + x;
      coo.add(i, i, 4.0);
      if (x > 0) coo.add(i, i - 1, -1.0);
      if (x + 1 < nx) coo.add(i, i + 1, -1.0);
      if (y > 0) coo.add(i, i - nx, -1.0);
      if (y + 1 < ny) coo.add(i, i + nx, -1.0);
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix stencil27(index_t nx, index_t ny, index_t nz) {
  const index_t n = nx * ny * nz;
  CooMatrix coo{n, n};
  coo.reserve(static_cast<std::size_t>(n) * 27);
  for (index_t z = 0; z < nz; ++z) {
    for (index_t y = 0; y < ny; ++y) {
      for (index_t x = 0; x < nx; ++x) {
        const index_t i = (z * ny + y) * nx + x;
        for (int dz = -1; dz <= 1; ++dz) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              const index_t xx = x + dx, yy = y + dy, zz = z + dz;
              if (xx < 0 || xx >= nx || yy < 0 || yy >= ny || zz < 0 || zz >= nz) continue;
              const index_t j = (zz * ny + yy) * nx + xx;
              coo.add(i, j, i == j ? 26.0 : -1.0);
            }
          }
        }
      }
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix banded(index_t n, index_t half_bw, index_t nnz_per_row, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  CooMatrix coo{n, n};
  coo.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(nnz_per_row));
  std::vector<index_t> cols;
  for (index_t i = 0; i < n; ++i) {
    const index_t lo = std::max<index_t>(0, i - half_bw);
    const index_t hi = std::min<index_t>(n, i + half_bw + 1);
    draw_distinct(rng, lo, hi, nnz_per_row, cols);
    bool has_diag = false;
    for (index_t c : cols) {
      coo.add(i, c, random_value(rng));
      has_diag |= (c == i);
    }
    if (!has_diag) coo.add(i, i, random_value(rng));
  }
  coo.compress();
  return CsrMatrix::from_coo(coo);
}

CsrMatrix fem_like(index_t n, index_t blocks_per_row, index_t block_size, index_t half_bw,
                   std::uint64_t seed) {
  Xoshiro256 rng{seed};
  CooMatrix coo{n, n};
  std::vector<index_t> starts;
  for (index_t i = 0; i < n; ++i) {
    const index_t lo = std::max<index_t>(0, i - half_bw);
    const index_t hi = std::min<index_t>(n, i + half_bw + 1);
    draw_distinct(rng, lo, std::max<index_t>(lo + 1, hi - block_size), blocks_per_row, starts);
    std::set<index_t> cols;
    cols.insert(i);
    for (index_t s : starts) {
      // Jitter the block length by +-1 to avoid perfectly uniform rows.
      const index_t len = std::max<index_t>(
          1, block_size + static_cast<index_t>(rng.bounded(3)) - 1);
      for (index_t c = s; c < std::min<index_t>(n, s + len); ++c) cols.insert(c);
    }
    for (index_t c : cols) coo.add(i, c, random_value(rng));
  }
  coo.compress();
  return CsrMatrix::from_coo(coo);
}

CsrMatrix random_uniform(index_t n, index_t nnz_per_row, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  CooMatrix coo{n, n};
  coo.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(nnz_per_row));
  std::vector<index_t> cols;
  for (index_t i = 0; i < n; ++i) {
    draw_distinct(rng, 0, n, nnz_per_row, cols);
    for (index_t c : cols) coo.add(i, c, random_value(rng));
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix powerlaw(index_t n, double alpha, index_t max_degree, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  CooMatrix coo{n, n};
  std::set<index_t> cols;
  for (index_t i = 0; i < n; ++i) {
    const auto deg = static_cast<index_t>(
        std::min<std::uint64_t>(rng.zipf(static_cast<std::uint64_t>(max_degree), alpha),
                                static_cast<std::uint64_t>(n)));
    cols.clear();
    while (cols.size() < static_cast<std::size_t>(deg)) {
      // Preferential attachment to low column ids (hub columns), with a
      // uniform tail so the access pattern stays scattered.
      index_t c;
      if (rng.uniform() < 0.7) {
        c = static_cast<index_t>(rng.zipf(static_cast<std::uint64_t>(n), 1.3) - 1);
      } else {
        c = static_cast<index_t>(rng.bounded(static_cast<std::uint64_t>(n)));
      }
      cols.insert(c);
    }
    for (index_t c : cols) coo.add(i, c, random_value(rng));
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix circuit_like(index_t n, index_t bg_nnz_per_row, index_t ndense, index_t dense_nnz,
                       std::uint64_t seed) {
  Xoshiro256 rng{seed};
  CooMatrix coo{n, n};
  std::vector<index_t> cols;
  // Near-diagonal background.
  const index_t half_bw = std::max<index_t>(8, bg_nnz_per_row * 4);
  for (index_t i = 0; i < n; ++i) {
    const index_t lo = std::max<index_t>(0, i - half_bw);
    const index_t hi = std::min<index_t>(n, i + half_bw + 1);
    draw_distinct(rng, lo, hi, bg_nnz_per_row, cols);
    for (index_t c : cols) coo.add(i, c, random_value(rng));
    coo.add(i, i, random_value(rng));
  }
  // A few ultra-dense rows spread across the matrix.
  for (index_t k = 0; k < ndense; ++k) {
    const auto row = static_cast<index_t>(rng.bounded(static_cast<std::uint64_t>(n)));
    draw_distinct(rng, 0, n, dense_nnz, cols);
    for (index_t c : cols) coo.add(row, c, random_value(rng));
  }
  coo.compress();
  return CsrMatrix::from_coo(coo);
}

CsrMatrix dense_rows_wide(index_t n, index_t nnz_per_row, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  CooMatrix coo{n, n};
  coo.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(nnz_per_row));
  std::vector<index_t> cols;
  for (index_t i = 0; i < n; ++i) {
    // Mild clustering: draw group anchors, then short runs around them.
    std::set<index_t> picked;
    while (picked.size() < static_cast<std::size_t>(nnz_per_row)) {
      const auto anchor = static_cast<index_t>(rng.bounded(static_cast<std::uint64_t>(n)));
      const auto run = static_cast<index_t>(1 + rng.bounded(4));
      for (index_t c = anchor; c < std::min<index_t>(n, anchor + run); ++c) picked.insert(c);
    }
    cols.assign(picked.begin(), picked.end());
    if (static_cast<index_t>(cols.size()) > nnz_per_row) cols.resize(nnz_per_row);
    for (index_t c : cols) coo.add(i, c, random_value(rng));
  }
  coo.compress();
  return CsrMatrix::from_coo(coo);
}

CsrMatrix hybrid_regions(index_t n, double regular_fraction, index_t nnz_per_row,
                         std::uint64_t seed) {
  Xoshiro256 rng{seed};
  CooMatrix coo{n, n};
  coo.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(nnz_per_row));
  const auto split = static_cast<index_t>(regular_fraction * static_cast<double>(n));
  const index_t half_bw = std::max<index_t>(8, nnz_per_row * 2);
  std::vector<index_t> cols;
  for (index_t i = 0; i < n; ++i) {
    if (i < split) {
      const index_t lo = std::max<index_t>(0, i - half_bw);
      const index_t hi = std::min<index_t>(n, i + half_bw + 1);
      draw_distinct(rng, lo, hi, nnz_per_row, cols);
    } else {
      draw_distinct(rng, 0, n, nnz_per_row, cols);
    }
    for (index_t c : cols) coo.add(i, c, random_value(rng));
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix diagonal(index_t n) {
  CooMatrix coo{n, n};
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 1.0);
  return CsrMatrix::from_coo(coo);
}

CsrMatrix dense(index_t n, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  CooMatrix coo{n, n};
  coo.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) coo.add(i, j, random_value(rng));
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix block_diagonal(index_t n, index_t block, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  CooMatrix coo{n, n};
  for (index_t b = 0; b < n; b += block) {
    const index_t end = std::min<index_t>(n, b + block);
    for (index_t i = b; i < end; ++i) {
      for (index_t j = b; j < end; ++j) coo.add(i, j, random_value(rng));
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix make_diagonally_dominant(const CsrMatrix& m, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  CooMatrix coo{m.nrows(), m.ncols()};
  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    double off_diag = 0.0;
    for (std::size_t j = 0; j < cols.size(); ++j) {
      if (cols[j] != i) {
        coo.add(i, cols[j], vals[j]);
        off_diag += std::abs(vals[j]);
      }
    }
    coo.add(i, i, off_diag + 1.0 + rng.uniform());
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix symmetrized(const CsrMatrix& m, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  CooMatrix coo{m.nrows(), m.nrows()};
  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] >= i) break;  // columns are sorted; lower triangle only
      coo.add(i, cols[k], vals[k]);
      coo.add(cols[k], i, vals[k]);
    }
    coo.add(i, i, rng.uniform(1.0, 2.0));
  }
  coo.compress();
  return CsrMatrix::from_coo(coo);
}

}  // namespace sparta::gen
