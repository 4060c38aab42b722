// Tests for the COO and CSR substrate: construction, invariants, conversion,
// transpose, byte accounting and the reference SpMV.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "common/prng.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace sparta {
namespace {

CooMatrix small_coo() {
  // [ 1 0 2 ]
  // [ 0 0 0 ]
  // [ 3 4 0 ]
  CooMatrix coo{3, 3};
  coo.add(0, 0, 1.0);
  coo.add(0, 2, 2.0);
  coo.add(2, 0, 3.0);
  coo.add(2, 1, 4.0);
  return coo;
}

TEST(Coo, RejectsNegativeDimensions) {
  EXPECT_THROW(CooMatrix(-1, 3), std::invalid_argument);
}

TEST(Coo, RejectsOutOfRangeEntries) {
  CooMatrix coo{2, 2};
  EXPECT_THROW(coo.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(coo.add(0, -1, 1.0), std::out_of_range);
  EXPECT_THROW(coo.add(-1, 0, 1.0), std::out_of_range);
}

TEST(Coo, CompressSortsAndSumsDuplicates) {
  CooMatrix coo{2, 2};
  coo.add(1, 1, 1.0);
  coo.add(0, 0, 2.0);
  coo.add(1, 1, 3.0);
  EXPECT_FALSE(coo.is_compressed());
  coo.compress();
  EXPECT_TRUE(coo.is_compressed());
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 0, 2.0}));
  EXPECT_EQ(coo.entries()[1], (Triplet{1, 1, 4.0}));
}

TEST(Coo, CompressKeepsExplicitZeroSums) {
  CooMatrix coo{1, 2};
  coo.add(0, 1, 5.0);
  coo.add(0, 1, -5.0);
  coo.compress();
  ASSERT_EQ(coo.nnz(), 1);
  EXPECT_DOUBLE_EQ(coo.entries()[0].value, 0.0);
}

TEST(Coo, EmptyIsCompressed) {
  CooMatrix coo{4, 4};
  EXPECT_TRUE(coo.is_compressed());
  coo.compress();
  EXPECT_EQ(coo.nnz(), 0);
}

// The parallel scan gives the serial answer at any thread count, for a single
// fault anywhere, including at the edges of the per-thread ranges.
TEST(Coo, IsCompressedAgreesAcrossThreadCounts) {
  constexpr index_t n = 1 << 17;  // above the parallel threshold
  CooMatrix sorted{n, 2};
  for (index_t i = 0; i < n; ++i) sorted.add(i, i % 2, 1.0);
  for (const int threads : {1, 2, 3, 4}) EXPECT_TRUE(sorted.is_compressed(threads));
  for (const std::size_t at : {std::size_t{1}, std::size_t{n / 4}, std::size_t{n / 4 + 1},
                               std::size_t{n / 3}, std::size_t{n / 2}, std::size_t{n - 1}}) {
    for (const bool duplicate : {false, true}) {
      CooMatrix bad = sorted;
      auto& e = bad.entries();
      if (duplicate) {
        e[at] = e[at - 1];
      } else {
        std::swap(e[at], e[at - 1]);
      }
      for (const int threads : {1, 2, 3, 4}) {
        EXPECT_FALSE(bad.is_compressed(threads)) << at << " " << threads;
      }
    }
  }
}

TEST(Csr, FromCooBuildsExpectedStructure) {
  const CsrMatrix m = CsrMatrix::from_coo(small_coo());
  EXPECT_EQ(m.nrows(), 3);
  EXPECT_EQ(m.ncols(), 3);
  EXPECT_EQ(m.nnz(), 4);
  ASSERT_EQ(m.rowptr().size(), 4u);
  EXPECT_EQ(m.rowptr()[0], 0);
  EXPECT_EQ(m.rowptr()[1], 2);
  EXPECT_EQ(m.rowptr()[2], 2);  // empty row
  EXPECT_EQ(m.rowptr()[3], 4);
  EXPECT_EQ(m.row_nnz(0), 2);
  EXPECT_EQ(m.row_nnz(1), 0);
  EXPECT_EQ(m.row_nnz(2), 2);
}

TEST(Csr, FromUncompressedCooCompressesCopy) {
  CooMatrix coo{2, 2};
  coo.add(1, 0, 1.0);
  coo.add(0, 0, 1.0);
  coo.add(1, 0, 2.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.row_vals(1)[0], 3.0);
  // Original COO untouched.
  EXPECT_EQ(coo.nnz(), 3);
}

TEST(Csr, RowAccessors) {
  const CsrMatrix m = CsrMatrix::from_coo(small_coo());
  const auto cols = m.row_cols(2);
  const auto vals = m.row_vals(2);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], 0);
  EXPECT_EQ(cols[1], 1);
  EXPECT_DOUBLE_EQ(vals[0], 3.0);
  EXPECT_DOUBLE_EQ(vals[1], 4.0);
  EXPECT_TRUE(m.row_cols(1).empty());
}

TEST(Csr, ValidateRejectsBadRowptr) {
  numa_vector<offset_t> rowptr{0, 2, 1};  // decreasing
  numa_vector<index_t> colind{0, 1};
  numa_vector<value_t> values{1.0, 2.0};
  EXPECT_THROW(CsrMatrix(2, 2, rowptr, colind, values), std::invalid_argument);
}

TEST(Csr, ValidateRejectsWrongRowptrStart) {
  numa_vector<offset_t> rowptr{1, 2};
  numa_vector<index_t> colind{0, 0};
  numa_vector<value_t> values{1.0, 2.0};
  EXPECT_THROW(CsrMatrix(1, 1, rowptr, colind, values), std::invalid_argument);
}

TEST(Csr, ValidateRejectsColumnOutOfRange) {
  numa_vector<offset_t> rowptr{0, 1};
  numa_vector<index_t> colind{5};
  numa_vector<value_t> values{1.0};
  EXPECT_THROW(CsrMatrix(1, 2, rowptr, colind, values), std::invalid_argument);
}

TEST(Csr, ValidateRejectsUnsortedColumns) {
  numa_vector<offset_t> rowptr{0, 2};
  numa_vector<index_t> colind{1, 0};
  numa_vector<value_t> values{1.0, 2.0};
  EXPECT_THROW(CsrMatrix(1, 2, rowptr, colind, values), std::invalid_argument);
}

TEST(Csr, ValidateRejectsDuplicateColumns) {
  numa_vector<offset_t> rowptr{0, 2};
  numa_vector<index_t> colind{1, 1};
  numa_vector<value_t> values{1.0, 2.0};
  EXPECT_THROW(CsrMatrix(1, 2, rowptr, colind, values), std::invalid_argument);
}

TEST(Csr, ValidateRejectsNnzMismatch) {
  numa_vector<offset_t> rowptr{0, 1};
  numa_vector<index_t> colind{0, 1};
  numa_vector<value_t> values{1.0, 2.0};
  EXPECT_THROW(CsrMatrix(1, 2, rowptr, colind, values), std::invalid_argument);
}

TEST(Csr, ByteAccounting) {
  const CsrMatrix m = CsrMatrix::from_coo(small_coo());
  EXPECT_EQ(m.index_bytes(), 4 * sizeof(offset_t) + 4 * sizeof(index_t));
  EXPECT_EQ(m.value_bytes(), 4 * sizeof(value_t));
  EXPECT_EQ(m.bytes(), m.index_bytes() + m.value_bytes());
  EXPECT_EQ(m.spmv_working_set_bytes(), m.bytes() + 6 * sizeof(value_t));
}

TEST(Csr, TransposeTwiceIsIdentity) {
  const CsrMatrix m = CsrMatrix::from_coo(small_coo());
  EXPECT_EQ(m.transpose().transpose(), m);
}

TEST(Csr, TransposeMovesEntries) {
  const CsrMatrix m = CsrMatrix::from_coo(small_coo());
  const CsrMatrix t = m.transpose();
  // (0,2)=2 becomes (2,0)=2.
  ASSERT_EQ(t.row_nnz(2), 1);
  EXPECT_EQ(t.row_cols(2)[0], 0);
  EXPECT_DOUBLE_EQ(t.row_vals(2)[0], 2.0);
}

TEST(Csr, TransposeRectangular) {
  CooMatrix coo{2, 5};
  coo.add(0, 4, 1.5);
  coo.add(1, 0, 2.5);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const CsrMatrix t = m.transpose();
  EXPECT_EQ(t.nrows(), 5);
  EXPECT_EQ(t.ncols(), 2);
  EXPECT_DOUBLE_EQ(t.row_vals(4)[0], 1.5);
}

TEST(Csr, DefaultConstructedIsEmpty) {
  const CsrMatrix m;
  EXPECT_EQ(m.nrows(), 0);
  EXPECT_EQ(m.nnz(), 0);
}

TEST(SpmvReference, MatchesManualComputation) {
  const CsrMatrix m = CsrMatrix::from_coo(small_coo());
  const aligned_vector<value_t> x{1.0, 2.0, 3.0};
  aligned_vector<value_t> y(3, -1.0);
  spmv_reference(m, x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0 * 1.0 + 2.0 * 3.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);  // empty row overwrites stale data
  EXPECT_DOUBLE_EQ(y[2], 3.0 * 1.0 + 4.0 * 2.0);
}

TEST(SpmvReference, RejectsSizeMismatch) {
  const CsrMatrix m = CsrMatrix::from_coo(small_coo());
  aligned_vector<value_t> x(2), y(3);
  EXPECT_THROW(spmv_reference(m, x, y), std::invalid_argument);
  aligned_vector<value_t> x3(3), y2(2);
  EXPECT_THROW(spmv_reference(m, x3, y2), std::invalid_argument);
}

TEST(SpmvReference, MatchesDenseMultiplyOnRandomMatrix) {
  Xoshiro256 rng{99};
  constexpr index_t kN = 40;
  CooMatrix coo{kN, kN};
  std::vector<std::vector<double>> dense(kN, std::vector<double>(kN, 0.0));
  for (int k = 0; k < 300; ++k) {
    const auto i = static_cast<index_t>(rng.bounded(kN));
    const auto j = static_cast<index_t>(rng.bounded(kN));
    const double v = rng.uniform(-2.0, 2.0);
    coo.add(i, j, v);
    dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] += v;
  }
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  aligned_vector<value_t> x(kN), y(kN);
  for (index_t i = 0; i < kN; ++i) x[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0);
  spmv_reference(m, x, y);
  for (index_t i = 0; i < kN; ++i) {
    double expect = 0.0;
    for (index_t j = 0; j < kN; ++j) {
      expect += dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
                x[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], expect, 1e-12);
  }
}

}  // namespace
}  // namespace sparta
