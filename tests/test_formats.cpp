// Tests for the delta-compressed CSR format. Round-trips are verified
// across generator families with parameterized property tests.
#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "sparse/delta_csr.hpp"

namespace sparta {
namespace {

TEST(DeltaWidthPick, NarrowBandGets8Bit) {
  const CsrMatrix m = gen::banded(500, 30, 6, 1);
  const auto w = DeltaCsrMatrix::pick_width(m);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, DeltaWidth::k8);
}

TEST(DeltaWidthPick, MediumBandGets16Bit) {
  const CsrMatrix m = gen::banded(40000, 15000, 8, 2);
  const auto w = DeltaCsrMatrix::pick_width(m);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, DeltaWidth::k16);
}

TEST(DeltaWidthPick, HugeGapsAreIncompressible) {
  CooMatrix coo{2, 200000};
  coo.add(0, 0, 1.0);
  coo.add(0, 150000, 2.0);  // delta 150000 > 65535
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_FALSE(DeltaCsrMatrix::pick_width(m).has_value());
  EXPECT_FALSE(DeltaCsrMatrix::compress(m).has_value());
}

TEST(DeltaCsr, SingleWidthNeverMixed) {
  // A matrix with mostly tiny deltas but one >255 must use 16-bit uniformly.
  CooMatrix coo{2, 1000};
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(0, 500, 1.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto d = DeltaCsrMatrix::compress(m);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->width(), DeltaWidth::k16);
  EXPECT_TRUE(d->deltas8().empty());
  EXPECT_EQ(d->deltas16().size(), 3u);
}

TEST(DeltaCsr, RoundTripPreservesMatrix) {
  const CsrMatrix m = gen::banded(1000, 100, 10, 3);
  const auto d = DeltaCsrMatrix::compress(m);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->decompress(m), m);
}

TEST(DeltaCsr, CompressesIndexBytes) {
  const CsrMatrix m = gen::banded(2000, 50, 12, 4);
  const auto d = DeltaCsrMatrix::compress(m);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->width(), DeltaWidth::k8);
  EXPECT_EQ(d->deltas8().size(), static_cast<std::size_t>(m.nnz()));
  EXPECT_EQ(d->first_col().size(), static_cast<std::size_t>(m.nrows()));
  EXPECT_LT(d->bytes(), m.colind().size_bytes());
}

TEST(DeltaCsr, HandlesEmptyRows) {
  CooMatrix coo{4, 16};
  coo.add(0, 3, 1.0);
  coo.add(3, 2, 2.0);
  coo.add(3, 9, 3.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto d = DeltaCsrMatrix::compress(m);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->decompress(m), m);
}

TEST(DeltaCsr, DiagonalMatrixCompressesTo8Bit) {
  const CsrMatrix m = gen::diagonal(100);
  const auto d = DeltaCsrMatrix::compress(m);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->width(), DeltaWidth::k8);
  EXPECT_EQ(d->decompress(m), m);
}

// Property sweep: delta round-trips across families.
struct FormatCase {
  const char* name;
  CsrMatrix (*make)();
};

class FormatRoundTrip : public ::testing::TestWithParam<FormatCase> {};

TEST_P(FormatRoundTrip, DeltaRoundTripsWhenCompressible) {
  const CsrMatrix m = GetParam().make();
  const auto d = DeltaCsrMatrix::compress(m);
  if (d.has_value()) {
    EXPECT_EQ(d->decompress(m), m);
    // The per-row first_col array only pays off when rows average more than
    // one nonzero; singleton-row matrices legitimately grow slightly.
    if (m.nnz() >= 2 * m.nrows()) {
      EXPECT_LE(d->bytes(), m.colind().size_bytes());
    }
  } else {
    EXPECT_FALSE(DeltaCsrMatrix::pick_width(m).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FormatRoundTrip,
    ::testing::Values(
        FormatCase{"stencil5", [] { return gen::stencil5(24, 18); }},
        FormatCase{"stencil27", [] { return gen::stencil27(8, 8, 8); }},
        FormatCase{"banded", [] { return gen::banded(700, 60, 9, 11); }},
        FormatCase{"fem", [] { return gen::fem_like(600, 4, 6, 150, 12); }},
        FormatCase{"random", [] { return gen::random_uniform(400, 12, 13); }},
        FormatCase{"powerlaw", [] { return gen::powerlaw(800, 1.7, 200, 14); }},
        FormatCase{"circuit", [] { return gen::circuit_like(900, 3, 4, 700, 15); }},
        FormatCase{"diagonal", [] { return gen::diagonal(333); }},
        FormatCase{"blockdiag", [] { return gen::block_diagonal(512, 16, 16); }}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace sparta
