// Bound micro-benchmark kernels (paper §III-B), host versions.
//
// P_ML kernel: "irregular accesses to x are converted to regular accesses
// ... by setting all entries of the colind array to the row index". We
// build that modified colind and run the standard kernel on it, exactly as
// the paper describes — traffic is preserved, irregularity is removed.
//
// P_CMP kernel: "we no longer use colind to index vector x, but always
// access x[i]" — indirect references eliminated entirely, colind not
// loaded.
#pragma once

#include <span>

#include "common/numa.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

namespace sparta::kernels {

/// colind' with every entry set to its row index (filled in parallel).
numa_vector<index_t> regularized_colind(const CsrMatrix& a);

/// Standard scalar kernel with a caller-supplied colind (used with
/// regularized_colind for the P_ML bound).
void spmv_with_colind(const CsrMatrix& a, std::span<const index_t> colind,
                      std::span<const value_t> x, std::span<value_t> y,
                      std::span<const RowRange> parts);

/// P_CMP kernel: unit-stride x access, no colind loads.
void spmv_unit_stride(const CsrMatrix& a, std::span<const value_t> x, std::span<value_t> y,
                      std::span<const RowRange> parts);

}  // namespace sparta::kernels
