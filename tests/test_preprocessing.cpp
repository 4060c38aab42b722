// Parallel inspector pipeline (DESIGN.md §13): every two-pass OpenMP format
// builder must produce BIT-IDENTICAL output to its serial reference twin at
// every thread count — including edge matrices with empty rows, a single
// row, and pathologically dense rows.
#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "check/validate.hpp"
#include "gen/generators.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/delta_csr.hpp"
#include "sparse/partition.hpp"
#include "sparse/sell.hpp"

namespace sparta {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

template <typename T>
void expect_span_eq(std::span<const T> a, std::span<const T> b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << "[" << i << "]";
  }
}

void expect_csr_eq(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.nrows(), b.nrows());
  ASSERT_EQ(a.ncols(), b.ncols());
  expect_span_eq(a.rowptr(), b.rowptr(), "csr.rowptr");
  expect_span_eq(a.colind(), b.colind(), "csr.colind");
  expect_span_eq(a.values(), b.values(), "csr.values");
}

/// Rows 0 and 3 empty, row 2 carries most of the nonzeros.
CsrMatrix empty_row_matrix() {
  numa_vector<offset_t> rowptr{0, 0, 2, 6, 6, 7};
  numa_vector<index_t> colind{1, 4, 0, 2, 3, 5, 2};
  numa_vector<value_t> values{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  return CsrMatrix{5, 6, std::move(rowptr), std::move(colind), std::move(values)};
}

CsrMatrix single_row_matrix() {
  numa_vector<offset_t> rowptr{0, 3};
  numa_vector<index_t> colind{0, 3, 7};
  numa_vector<value_t> values{1.5, -2.5, 3.5};
  return CsrMatrix{1, 8, std::move(rowptr), std::move(colind), std::move(values)};
}

/// One fully dense row inside an otherwise diagonal matrix — exercises the
/// long-row split of the decomposed format and SELL's sorting window.
CsrMatrix dense_row_matrix() {
  const index_t n = 64;
  numa_vector<offset_t> rowptr(static_cast<std::size_t>(n) + 1);
  numa_vector<index_t> colind;
  numa_vector<value_t> values;
  rowptr[0] = 0;
  for (index_t i = 0; i < n; ++i) {
    if (i == 10) {
      for (index_t j = 0; j < n; ++j) {
        colind.push_back(j);
        values.push_back(0.5 * j);
      }
    } else {
      colind.push_back(i);
      values.push_back(1.0 + i);
    }
    rowptr[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(colind.size());
  }
  return CsrMatrix{n, n, std::move(rowptr), std::move(colind), std::move(values)};
}

CsrMatrix empty_matrix() { return CsrMatrix{}; }

/// The agreement suite: structural families plus the edge cases.
std::vector<CsrMatrix> suite() {
  std::vector<CsrMatrix> out;
  out.push_back(gen::banded(300, 12, 7, 41));
  out.push_back(gen::random_uniform(500, 9, 42));
  out.push_back(gen::circuit_like(400, 3, 4, 300, 43));
  out.push_back(gen::block_diagonal(240, 8, 44));
  out.push_back(empty_row_matrix());
  out.push_back(single_row_matrix());
  out.push_back(dense_row_matrix());
  out.push_back(empty_matrix());
  return out;
}

TEST(BuilderAgreement, CsrFromCooMatchesAcrossThreadCounts) {
  for (const CsrMatrix& m : suite()) {
    CooMatrix coo{m.nrows(), m.ncols()};
    coo.reserve(static_cast<std::size_t>(m.nnz()));
    for (index_t i = 0; i < m.nrows(); ++i) {
      const auto cols = m.row_cols(i);
      const auto vals = m.row_vals(i);
      for (std::size_t j = 0; j < cols.size(); ++j) coo.add(i, cols[j], vals[j]);
    }
    const CsrMatrix ref = CsrMatrix::from_coo(coo, 1);
    expect_csr_eq(ref, m);
    for (const int t : kThreadCounts) expect_csr_eq(CsrMatrix::from_coo(coo, t), ref);
  }
}

TEST(BuilderAgreement, DeltaMatchesSerial) {
  for (const CsrMatrix& m : suite()) {
    const auto ref = DeltaCsrMatrix::compress_serial(m);
    for (const int t : kThreadCounts) {
      const auto par = DeltaCsrMatrix::compress(m, t);
      ASSERT_EQ(par.has_value(), ref.has_value());
      if (!ref) continue;
      EXPECT_EQ(par->width(), ref->width());
      expect_span_eq(par->first_col(), ref->first_col(), "delta.first_col");
      expect_span_eq(par->deltas8(), ref->deltas8(), "delta.deltas8");
      expect_span_eq(par->deltas16(), ref->deltas16(), "delta.deltas16");
    }
  }
}

TEST(BuilderAgreement, DeltaRefusalMatchesSerial) {
  // Column span of 70000 exceeds the 16-bit delta budget: both paths refuse.
  numa_vector<offset_t> rowptr{0, 2};
  numa_vector<index_t> colind{0, 70000};
  numa_vector<value_t> values{1.0, 2.0};
  const CsrMatrix wide{1, 70001, std::move(rowptr), std::move(colind), std::move(values)};
  EXPECT_FALSE(DeltaCsrMatrix::compress_serial(wide).has_value());
  for (const int t : kThreadCounts) {
    EXPECT_FALSE(DeltaCsrMatrix::compress(wide, t).has_value());
  }
}

TEST(BuilderAgreement, SellMatchesSerial) {
  for (const CsrMatrix& m : suite()) {
    for (const auto& [chunk, sigma] : {std::pair<index_t, index_t>{4, 16},
                                      std::pair<index_t, index_t>{8, 64}}) {
      const SellMatrix ref = SellMatrix::from_csr_serial(m, chunk, sigma);
      for (const int t : kThreadCounts) {
        const SellMatrix par = SellMatrix::from_csr(m, chunk, sigma, t);
        ASSERT_EQ(par.nchunks(), ref.nchunks());
        ASSERT_EQ(par.padded_nnz(), ref.padded_nnz());
        for (index_t k = 0; k < ref.nchunks(); ++k) {
          ASSERT_EQ(par.chunk_len(k), ref.chunk_len(k)) << "chunk " << k;
          ASSERT_EQ(par.chunk_offset(k), ref.chunk_offset(k)) << "chunk " << k;
        }
        for (index_t p = 0; p < m.nrows(); ++p) {
          ASSERT_EQ(par.row_of(p), ref.row_of(p)) << "lane " << p;
          ASSERT_EQ(par.row_len(p), ref.row_len(p)) << "lane " << p;
        }
        expect_span_eq(par.colind(), ref.colind(), "sell.colind");
        expect_span_eq(par.values(), ref.values(), "sell.values");
      }
    }
  }
}

TEST(BuilderAgreement, PartitionersMatchAcrossThreadCounts) {
  const CsrMatrix m = gen::circuit_like(4000, 3, 5, 3000, 45);
  for (const int nparts : {1, 3, 7, 32, 61, 240}) {
    const auto ref_nnz = partition_balanced_nnz(m, nparts, 1);
    const auto ref_rows = partition_equal_rows(m.nrows(), nparts, 1);
    check::validate_partition(ref_nnz, m.nrows());
    check::validate_partition(ref_rows, m.nrows());
    for (const int t : kThreadCounts) {
      EXPECT_EQ(partition_balanced_nnz(m, nparts, t), ref_nnz) << "nparts " << nparts;
      EXPECT_EQ(partition_equal_rows(m.nrows(), nparts, t), ref_rows)
          << "nparts " << nparts;
    }
  }
}

}  // namespace
}  // namespace sparta
