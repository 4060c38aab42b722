// Synthetic sparse matrix generators.
//
// Stand-in for the University of Florida (SuiteSparse) collection, which is
// not available offline. Each generator targets one structural family the
// paper's suite covers; parameters control exactly the properties the
// classifiers look at (row-length distribution, bandwidth, scatter,
// dense-row concentration). All generators are deterministic in their seed.
#pragma once

#include <cstdint>

#include "sparse/csr.hpp"

namespace sparta::gen {

/// 5-point 2D Poisson stencil on an nx x ny grid (SPD, regular, ~5 nnz/row).
CsrMatrix stencil5(index_t nx, index_t ny);

/// 27-point 3D stencil on an nx x ny x nz grid (regular, 27 nnz/row,
/// moderate bandwidth — FEM-volume-like).
CsrMatrix stencil27(index_t nx, index_t ny, index_t nz);

/// Banded matrix: each row has `nnz_per_row` nonzeros uniformly scattered in
/// a band of half-width `half_bw` around the diagonal.
CsrMatrix banded(index_t n, index_t half_bw, index_t nnz_per_row, std::uint64_t seed);

/// FEM-like: rows carry small contiguous blocks (clustered columns) near the
/// diagonal, block size jittered — high clustering, regular row lengths.
CsrMatrix fem_like(index_t n, index_t blocks_per_row, index_t block_size, index_t half_bw,
                   std::uint64_t seed);

/// Uniform random: `nnz_per_row` nonzeros per row scattered over all
/// columns — maximally irregular x access (latency-bound archetype).
CsrMatrix random_uniform(index_t n, index_t nnz_per_row, std::uint64_t seed);

/// Power-law (graph-like): row degrees follow a Zipf distribution with
/// exponent `alpha`; columns are drawn preferentially from a Zipf over the
/// column space. Models web/citation/social matrices: many very short rows
/// plus a few hubs.
CsrMatrix powerlaw(index_t n, double alpha, index_t max_degree, std::uint64_t seed);

/// Circuit-like: a near-diagonal sparse background (`bg_nnz_per_row`) plus
/// `ndense` rows that each hold `dense_nnz` nonzeros scattered over all
/// columns. Models ASIC/rajat/FullChip: the majority of nonzeros are
/// concentrated in a few ultra-long rows.
CsrMatrix circuit_like(index_t n, index_t bg_nnz_per_row, index_t ndense, index_t dense_nnz,
                       std::uint64_t seed);

/// Wide dense-ish rows: every row has `nnz_per_row` nonzeros spread over the
/// full column range with mild clustering (human_gene-like: large bandwidth,
/// heavy rows).
CsrMatrix dense_rows_wide(index_t n, index_t nnz_per_row, std::uint64_t seed);

/// Regionally hybrid matrix: the top `regular_fraction` of the rows form a
/// narrow regular band, the rest scatter uniformly over all columns. The
/// "regions with completely different sparsity patterns" archetype
/// (paper §III-A, IMB class) and the stress case for the partitioned ML
/// analysis of the paper's future work.
CsrMatrix hybrid_regions(index_t n, double regular_fraction, index_t nnz_per_row,
                         std::uint64_t seed);

/// Diagonal matrix with unit entries (degenerate edge case).
CsrMatrix diagonal(index_t n);

/// Fully dense matrix in CSR form (small n only; CMP archetype).
CsrMatrix dense(index_t n, std::uint64_t seed);

/// Block-diagonal with dense `block` x `block` blocks (cache-friendly,
/// perfectly clustered).
CsrMatrix block_diagonal(index_t n, index_t block, std::uint64_t seed);

/// Rewrite values so the matrix is strictly diagonally dominant (adds the
/// diagonal if missing) — makes CG/BiCGSTAB converge for solver experiments.
CsrMatrix make_diagonally_dominant(const CsrMatrix& m, std::uint64_t seed);

/// Exactly symmetric twin of a square matrix: its strict lower triangle,
/// mirrored, plus a uniform(1, 2) value on the full diagonal.
CsrMatrix symmetrized(const CsrMatrix& m, std::uint64_t seed);

}  // namespace sparta::gen
