// Tests for the row partitioners: exact-cover invariants, nnz balance of the
// paper's baseline scheme, and degenerate cases — swept over matrix families
// and thread counts with parameterized tests — and for the long-row split's
// row schedule: which rows are long, and the partition of the other rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "check/validate.hpp"
#include "gen/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "sparse/partition.hpp"

namespace sparta {
namespace {

TEST(EqualRows, SplitsEvenly) {
  const auto parts = partition_equal_rows(10, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (RowRange{0, 4}));
  EXPECT_EQ(parts[1], (RowRange{4, 7}));
  EXPECT_EQ(parts[2], (RowRange{7, 10}));
  check::validate_partition(parts, 10);
}

TEST(EqualRows, MorePartsThanRowsYieldsEmptyRanges) {
  const auto parts = partition_equal_rows(2, 5);
  ASSERT_EQ(parts.size(), 5u);
  check::validate_partition(parts, 2);
  int nonempty = 0;
  for (const auto& p : parts) nonempty += p.size() > 0 ? 1 : 0;
  EXPECT_EQ(nonempty, 2);
}

TEST(EqualRows, RejectsNonPositiveParts) {
  EXPECT_THROW(partition_equal_rows(10, 0), std::invalid_argument);
  EXPECT_THROW(partition_equal_rows(10, -1), std::invalid_argument);
}

TEST(BalancedNnz, MorePartsThanRowsStaysInBounds) {
  // Regression: with more partitions than rows, the boundary search used to
  // run past rowptr.end() and emit ranges beyond nrows.
  CooMatrix coo{1, 1};
  coo.add(0, 0, 1.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto parts = partition_balanced_nnz(m, 228);
  check::validate_partition(parts, 1);
  for (const auto& p : parts) {
    EXPECT_GE(p.begin, 0);
    EXPECT_LE(p.end, 1);
  }
}

TEST(BalancedNnz, FewRowsManyParts) {
  const CsrMatrix m = gen::diagonal(3);
  const auto parts = partition_balanced_nnz(m, 16);
  check::validate_partition(parts, 3);
}

TEST(BalancedNnz, RejectsNonPositiveParts) {
  const CsrMatrix m = gen::diagonal(10);
  EXPECT_THROW(partition_balanced_nnz(m, 0), std::invalid_argument);
}

TEST(BalancedNnz, SinglePartCoversAll) {
  const CsrMatrix m = gen::banded(100, 10, 4, 31);
  const auto parts = partition_balanced_nnz(m, 1);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], (RowRange{0, 100}));
}

TEST(BalancedNnz, BalancesUniformMatrixTightly) {
  const CsrMatrix m = gen::diagonal(1000);
  const auto parts = partition_balanced_nnz(m, 8);
  check::validate_partition(parts, 1000);
  for (const auto& p : parts) {
    EXPECT_NEAR(static_cast<double>(range_nnz(m, p)), 125.0, 1.0);
  }
}

TEST(BalancedNnz, OutperformsEqualRowsOnSkewedMatrix) {
  // First rows hold almost all nonzeros.
  const CsrMatrix m = gen::circuit_like(4000, 2, 6, 3000, 32);
  const int t = 8;
  const auto bal = partition_balanced_nnz(m, t);
  const auto rows = partition_equal_rows(m.nrows(), t);
  auto max_nnz = [&](const std::vector<RowRange>& parts) {
    offset_t mx = 0;
    for (const auto& p : parts) mx = std::max(mx, range_nnz(m, p));
    return mx;
  };
  EXPECT_LE(max_nnz(bal), max_nnz(rows));
}

TEST(ValidatePartition, DetectsGap) {
  std::vector<RowRange> parts{{0, 3}, {4, 10}};
  EXPECT_THROW(check::validate_partition(parts, 10), std::invalid_argument);
}

TEST(ValidatePartition, DetectsOverlap) {
  std::vector<RowRange> parts{{0, 5}, {4, 10}};
  EXPECT_THROW(check::validate_partition(parts, 10), std::invalid_argument);
}

TEST(ValidatePartition, DetectsWrongStartEnd) {
  std::vector<RowRange> a{{1, 10}};
  EXPECT_THROW(check::validate_partition(a, 10), std::invalid_argument);
  std::vector<RowRange> b{{0, 9}};
  EXPECT_THROW(check::validate_partition(b, 10), std::invalid_argument);
  EXPECT_THROW(check::validate_partition({}, 0), std::invalid_argument);
}

TEST(ValidatePartition, DetectsInvertedRange) {
  std::vector<RowRange> parts{{0, 5}, {5, 4}};
  EXPECT_THROW(check::validate_partition(parts, 4), std::invalid_argument);
}

// Property sweep: balanced-nnz partitions are an exact ordered cover and no
// partition exceeds the ideal share by more than one row's worth of nnz.
struct PartitionCase {
  const char* name;
  CsrMatrix (*make)();
  int threads;
};

class BalancedNnzProperty : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(BalancedNnzProperty, ExactCoverAndBoundedImbalance) {
  const CsrMatrix m = GetParam().make();
  const int t = GetParam().threads;
  const auto parts = partition_balanced_nnz(m, t);
  ASSERT_EQ(parts.size(), static_cast<std::size_t>(t));
  check::validate_partition(parts, m.nrows());

  // Max row nnz bounds the unavoidable quantization of contiguous splits.
  offset_t max_row = 0;
  for (index_t i = 0; i < m.nrows(); ++i) {
    max_row = std::max<offset_t>(max_row, m.row_nnz(i));
  }
  const double ideal = static_cast<double>(m.nnz()) / t;
  for (const auto& p : parts) {
    EXPECT_LE(static_cast<double>(range_nnz(m, p)), ideal + static_cast<double>(max_row) + 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BalancedNnzProperty,
    ::testing::Values(
        PartitionCase{"stencil_t4", [] { return gen::stencil5(30, 30); }, 4},
        PartitionCase{"stencil_t57", [] { return gen::stencil5(30, 30); }, 57},
        PartitionCase{"banded_t8", [] { return gen::banded(2000, 100, 7, 41); }, 8},
        PartitionCase{"banded_t228", [] { return gen::banded(2000, 100, 7, 41); }, 228},
        PartitionCase{"powerlaw_t16", [] { return gen::powerlaw(3000, 1.8, 400, 42); }, 16},
        PartitionCase{"circuit_t44", [] { return gen::circuit_like(2500, 3, 5, 2000, 43); }, 44},
        PartitionCase{"diagonal_t3", [] { return gen::diagonal(17); }, 3},
        PartitionCase{"empty_rows_t4",
                      [] {
                        CooMatrix coo{100, 100};
                        coo.add(0, 0, 1.0);
                        coo.add(99, 99, 1.0);
                        return CsrMatrix::from_coo(coo);
                      },
                      4}),
    [](const auto& info) { return std::string{info.param.name}; });

// --- The long-row split's row schedule ------------------------------------

/// A copy of `m` with the rows in `rows` emptied, built entry by entry.
CsrMatrix with_rows_emptied(const CsrMatrix& m, std::span<const index_t> rows) {
  CooMatrix coo{m.nrows(), m.ncols()};
  for (index_t i = 0; i < m.nrows(); ++i) {
    if (std::binary_search(rows.begin(), rows.end(), i)) continue;
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) coo.add(i, cols[j], vals[j]);
  }
  return CsrMatrix::from_coo(coo);
}

/// 2000 x 2000, one diagonal entry per row except rows 5, 9 and 20, which
/// hold columns [0, 1024), [0, 1025) and [0, 2000): row 5 sits exactly at
/// the floor and is not long.
CsrMatrix threshold_edge_matrix() {
  CooMatrix coo{2000, 2000};
  for (index_t i = 0; i < 2000; ++i) {
    const index_t len = i == 5 ? 1024 : i == 9 ? 1025 : i == 20 ? 2000 : 0;
    if (len == 0) coo.add(i, i, 1.0);
    for (index_t c = 0; c < len; ++c) coo.add(i, c, 1.0);
  }
  return CsrMatrix::from_coo(coo);
}

/// Circuit-class matrix with 4 planted rows of 25000 nonzeros, none adjacent.
CsrMatrix circuit_matrix() { return gen::circuit_like(30000, 3, 4, 25000, 327); }

TEST(LongRows, ThresholdIsEightAverageRowsWithAFloor) {
  // 300 nonzeros in every row: 8 x 300 is above the floor.
  EXPECT_EQ(long_row_threshold(gen::dense_rows_wide(500, 300, 5)), 2400);
  EXPECT_EQ(long_row_threshold(gen::banded(1000, 40, 8, 9)), kMinLongRow);
  EXPECT_EQ(long_row_threshold(CsrMatrix::from_coo(CooMatrix{0, 0})), kMinLongRow);
}

TEST(LongRows, ReturnsExactlyTheRowsAboveTheThresholdAscending) {
  const CsrMatrix edge = threshold_edge_matrix();
  ASSERT_EQ(long_row_threshold(edge), kMinLongRow);
  EXPECT_EQ(long_rows(edge), (std::vector<index_t>{9, 20}));

  const CsrMatrix m = circuit_matrix();
  const auto rows = long_rows(m);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end(), std::less_equal<>{}));
  const index_t threshold = long_row_threshold(m);
  for (index_t i = 0; i < m.nrows(); ++i) {
    EXPECT_EQ(m.row_nnz(i) > threshold, std::binary_search(rows.begin(), rows.end(), i))
        << "row " << i;
  }
}

TEST(LongRows, NoneOnUniformOrEmptyMatrices) {
  EXPECT_TRUE(long_rows(gen::banded(1000, 40, 8, 9)).empty());
  EXPECT_TRUE(long_rows(gen::stencil27(12, 12, 12)).empty());
  EXPECT_TRUE(long_rows(CsrMatrix::from_coo(CooMatrix{0, 0})).empty());
}

TEST(LongRows, PartitionCountsTheGivenRowsAsEmpty) {
  // Long rows, then sets that hold the first and the last row; nparts from
  // 32 up run the parallel boundary search.
  const CsrMatrix circuit = circuit_matrix();
  const CsrMatrix edge = threshold_edge_matrix();
  const std::vector<std::pair<const CsrMatrix*, std::vector<index_t>>> cases{
      {&circuit, long_rows(circuit)},
      {&edge, long_rows(edge)},
      {&circuit, {0, 1, 17, circuit.nrows() - 1}},
      {&edge, {5, 9, 20, 1999}},
  };
  for (const auto& [m, rows] : cases) {
    const CsrMatrix emptied = with_rows_emptied(*m, rows);
    for (const int nparts : {1, 3, 4, 7, 32, 61}) {
      const auto want = partition_balanced_nnz(emptied, nparts, 1);
      for (const int threads : {1, 4}) {
        EXPECT_EQ(partition_balanced_nnz(*m, rows, nparts, threads), want)
            << "nparts " << nparts << " threads " << threads;
      }
    }
  }
}

TEST(LongRows, DecomposedPlanBalancesTheOtherRows) {
  // The decomposed plan's parts are the balanced partition of the matrix
  // with its long rows emptied, not of the whole matrix.
  const CsrMatrix m = circuit_matrix();
  const auto rows = long_rows(m);
  for (std::size_t k = 1; k < rows.size(); ++k) ASSERT_GT(rows[k], rows[k - 1] + 1);
  const CsrMatrix emptied = with_rows_emptied(m, rows);
  kernels::KernelConfig cfg;
  cfg.decomposed = true;
  for (const int threads : {1, 3, 4}) {
    const kernels::PreparedSpmv plan{m, kernels::SpmvOptions{.config = cfg, .threads = threads}};
    ASSERT_TRUE(plan.decomposed_applied());
    const auto want = partition_balanced_nnz(emptied, threads);
    const auto got = plan.region_parts();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace sparta
