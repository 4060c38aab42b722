// Tests for Matrix Market I/O: round-trips, symmetric/pattern handling,
// malformed-input rejection, and the symmetric-file -> SymCsr pipeline
// (the parsed eager-mirror matrix and the compressed storage must agree
// bit-for-bit through expand()).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>

#include "gen/generators.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/sym_csr.hpp"

namespace sparta {
namespace {

/// Read-only stream buffer over a string that cannot seek, like a pipe.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 private:
  std::string text_;
};

/// Expects read_coo to reject `text` with "matrix market: <what>...".
void expect_parse_error(std::istream& is, const std::string& what) {
  try {
    mm::read_coo(is);
    ADD_FAILURE() << "accepted input; expected '" << what << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string{e.what()}.rfind("matrix market: " + what, 0), 0u) << e.what();
  }
}

void expect_parse_error(const std::string& text, const std::string& what) {
  std::stringstream ss{text};
  expect_parse_error(ss, what);
}

constexpr const char* kRealGeneral = "%%MatrixMarket matrix coordinate real general\n";

TEST(MatrixMarket, WriteReadRoundTrip) {
  const CsrMatrix m = gen::banded(60, 10, 5, 21);
  std::stringstream ss;
  mm::write(ss, m);
  const CsrMatrix back = CsrMatrix::from_coo(mm::read_coo(ss));
  EXPECT_EQ(back, m);
}

TEST(MatrixMarket, RoundTripPreservesValuesExactly) {
  CooMatrix coo{2, 2};
  coo.add(0, 0, 1.0 / 3.0);
  coo.add(1, 1, -2.718281828459045);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  std::stringstream ss;
  mm::write(ss, m);
  const CsrMatrix back = CsrMatrix::from_coo(mm::read_coo(ss));
  EXPECT_DOUBLE_EQ(back.values()[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(back.values()[1], -2.718281828459045);
}

TEST(MatrixMarket, ParsesGeneralRealWithComments) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "%another\n"
      "3 3 2\n"
      "1 1 5.0\n"
      "3 2 -1.5\n"};
  const CooMatrix coo = mm::read_coo(ss);
  EXPECT_EQ(coo.nrows(), 3);
  EXPECT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 0, 5.0}));
  EXPECT_EQ(coo.entries()[1], (Triplet{2, 1, -1.5}));
}

TEST(MatrixMarket, SymmetricExpandsOffDiagonal) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 4.0\n"
      "3 3 9.0\n"};
  const CooMatrix coo = mm::read_coo(ss);
  EXPECT_EQ(coo.nnz(), 3);  // (1,0), (0,1), (2,2)
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_DOUBLE_EQ(m.row_vals(0)[0], 4.0);
  EXPECT_DOUBLE_EQ(m.row_vals(1)[0], 4.0);
  EXPECT_DOUBLE_EQ(m.row_vals(2)[0], 9.0);
}

TEST(MatrixMarket, SymmetricDiagonalNotDuplicated) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 1\n"
      "1 1 3.0\n"};
  const CooMatrix coo = mm::read_coo(ss);
  EXPECT_EQ(coo.nnz(), 1);
  EXPECT_DOUBLE_EQ(coo.entries()[0].value, 3.0);
}

// Golden symmetric fixture: lower-triangle file with a present, an
// explicitly zero, and an absent diagonal. The parsed (eagerly mirrored)
// matrix must match the hand-computed expansion exactly, and compressing it
// back into SymCsr storage must round-trip bit-for-bit.
TEST(MatrixMarket, SymmetricGoldenFixtureThroughSymCsr) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% 4x4 SPD-shaped: diag(0)=2.5, diag(1) explicit zero, diag(2) absent\n"
      "4 4 6\n"
      "1 1 2.5\n"
      "2 2 0.0\n"
      "2 1 -1.25\n"
      "3 1 0.5\n"
      "4 3 1.0\n"
      "4 4 3.0\n"};
  const CsrMatrix m = CsrMatrix::from_coo(mm::read_coo(ss));
  EXPECT_EQ(m.nnz(), 9);  // 6 stored + 3 off-diagonal mirrors

  CooMatrix want{4, 4};
  want.add(0, 0, 2.5);
  want.add(0, 1, -1.25);
  want.add(0, 2, 0.5);
  want.add(1, 0, -1.25);
  want.add(1, 1, 0.0);
  want.add(2, 0, 0.5);
  want.add(2, 3, 1.0);
  want.add(3, 2, 1.0);
  want.add(3, 3, 3.0);
  EXPECT_EQ(m, CsrMatrix::from_coo(want));

  const SymCsrMatrix sym = SymCsrMatrix::build(m);
  EXPECT_EQ(sym.lower_nnz(), 3);
  EXPECT_EQ(sym.diag_entries(), 3);  // rows 0, 1 (explicit zero), 3
  EXPECT_EQ(sym.diag_present()[2], 0);
  EXPECT_EQ(sym.expand(), m);
}

TEST(MatrixMarket, SymmetricPatternAndIntegerVariants) {
  std::stringstream pattern{
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 3\n"
      "1 1\n"
      "2 1\n"
      "3 2\n"};
  const CsrMatrix mp = CsrMatrix::from_coo(mm::read_coo(pattern));
  EXPECT_EQ(mp.nnz(), 5);
  EXPECT_DOUBLE_EQ(mp.row_vals(0)[1], 1.0);  // mirrored unit value
  const SymCsrMatrix sp = SymCsrMatrix::build(mp);
  EXPECT_EQ(sp.lower_nnz(), 2);
  EXPECT_EQ(sp.expand(), mp);

  std::stringstream integer{
      "%%MatrixMarket matrix coordinate integer symmetric\n"
      "2 2 2\n"
      "1 1 4\n"
      "2 1 -3\n"};
  const CsrMatrix mi = CsrMatrix::from_coo(mm::read_coo(integer));
  EXPECT_EQ(mi.nnz(), 3);
  EXPECT_DOUBLE_EQ(mi.row_vals(0)[1], -3.0);
  EXPECT_EQ(SymCsrMatrix::build(mi).expand(), mi);
}

TEST(MatrixMarket, SymmetricFileRoundTripThroughSymCsr) {
  // Disk round-trip: symmetric generator -> general file -> parse ->
  // compress -> expand reproduces the generator output bit-for-bit.
  const CsrMatrix m = gen::stencil5(9, 6);
  const std::string path = ::testing::TempDir() + "/sparta_mm_sym_test.mtx";
  mm::write_file(path, m);
  const CsrMatrix back = mm::read_csr_file(path);
  ASSERT_EQ(back, m);
  EXPECT_EQ(SymCsrMatrix::build(back).expand(), m);
}

// The format stores the lower triangle only; an upper-triangle coordinate in
// a symmetric file is malformed and must be rejected, not silently mirrored.
TEST(MatrixMarket, RejectsUpperTriangleEntryInSymmetricFile) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "1 2 4.0\n"
      "3 3 9.0\n"};
  EXPECT_THROW(mm::read_coo(ss), std::runtime_error);
}

TEST(MatrixMarket, SymmetricExplicitZeroDiagonalSurvivesCompression) {
  // compress() drops nothing here: the explicit zero is a stored entry and
  // must stay one (the exact-reserve counting path treats it as a diagonal,
  // not a mirror).
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2\n"
      "1 1 0.0\n"
      "2 1 1.5\n"};
  const CooMatrix coo = mm::read_coo(ss);
  EXPECT_EQ(coo.nnz(), 3);  // zero diagonal + two mirrors
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_EQ(m.row_cols(0).size(), 2u);
  EXPECT_DOUBLE_EQ(m.row_vals(0)[0], 0.0);
}

TEST(MatrixMarket, PatternEntriesGetUnitValue) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 1\n"};
  const CooMatrix coo = mm::read_coo(ss);
  EXPECT_EQ(coo.nnz(), 2);
  EXPECT_DOUBLE_EQ(coo.entries()[0].value, 1.0);
}

TEST(MatrixMarket, IntegerFieldAccepted) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate integer general\n"
      "1 1 1\n"
      "1 1 7\n"};
  const CooMatrix coo = mm::read_coo(ss);
  EXPECT_DOUBLE_EQ(coo.entries()[0].value, 7.0);
}

TEST(MatrixMarket, RejectsMissingBanner) {
  std::stringstream ss{"1 1 1\n1 1 1.0\n"};
  EXPECT_THROW(mm::read_coo(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsArrayFormat) {
  std::stringstream ss{"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"};
  EXPECT_THROW(mm::read_coo(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsComplexField) {
  std::stringstream ss{"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"};
  EXPECT_THROW(mm::read_coo(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsOutOfRangeEntry) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n"};
  EXPECT_THROW(mm::read_coo(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 3\n"
      "1 1 1.0\n"};
  EXPECT_THROW(mm::read_coo(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsMissingValue) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 1\n"};
  EXPECT_THROW(mm::read_coo(ss), std::runtime_error);
}

TEST(MatrixMarket, FileRoundTrip) {
  const CsrMatrix m = gen::stencil5(7, 5);
  const std::string path = ::testing::TempDir() + "/sparta_mm_test.mtx";
  mm::write_file(path, m);
  const CsrMatrix back = mm::read_csr_file(path);
  EXPECT_EQ(back, m);
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW(mm::read_csr_file("/nonexistent/path/x.mtx"), std::runtime_error);
}

// --- Hostile size lines and entries fail with a named error ----------------

TEST(MatrixMarket, HugeDeclaredCountDoesNotAllocateIt) {
  // 10^12 declared entries (16 TB of triplets) behind one real entry.
  expect_parse_error(std::string{kRealGeneral} + "1000000 1000000 1000000000000\n1 1 1.0\n",
                     "fewer entries than declared");
}

TEST(MatrixMarket, HugeDeclaredCountOnUnseekableStream) {
  PipeBuf buf{std::string{kRealGeneral} + "1000000 1000000 1000000000000\n1 1 1.0\n"};
  std::istream is{&buf};
  expect_parse_error(is, "fewer entries than declared");
}

TEST(MatrixMarket, UnseekableStreamRoundTrip) {
  const CsrMatrix m = gen::banded(3000, 40, 12, 22);
  std::stringstream ss;
  mm::write(ss, m);
  PipeBuf buf{ss.str()};
  std::istream is{&buf};
  EXPECT_EQ(CsrMatrix::from_coo(mm::read_coo(is)), m);
}

TEST(MatrixMarket, RejectsNegativeEntryCount) {
  expect_parse_error(std::string{kRealGeneral} + "2 2 -1\n", "negative size");
}

TEST(MatrixMarket, RejectsNegativeDimension) {
  expect_parse_error(std::string{kRealGeneral} + "2 -3 1\n1 1 1.0\n", "negative size");
}

TEST(MatrixMarket, RejectsMoreEntriesThanCells) {
  expect_parse_error(std::string{kRealGeneral} + "2 2 5\n1 1 1.0\n", "more entries than");
}

TEST(MatrixMarket, RejectsTrailingTokenOnSizeLine) {
  expect_parse_error(std::string{kRealGeneral} + "2 2 1 7\n1 1 1.0\n", "bad size line");
}

TEST(MatrixMarket, RejectsNanValue) {
  expect_parse_error(std::string{kRealGeneral} + "1 1 1\n1 1 nan\n", "non-finite value");
}

TEST(MatrixMarket, RejectsInfValue) {
  expect_parse_error(std::string{kRealGeneral} + "1 1 1\n1 1 inf\n", "non-finite value");
}

TEST(MatrixMarket, RejectsTrailingTokenOnEntry) {
  expect_parse_error(std::string{kRealGeneral} + "1 1 1\n1 1 1.0 junk\n", "trailing tokens");
  expect_parse_error(
      "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1 1.0\n",
      "trailing tokens");
}

TEST(MatrixMarket, AcceptsTrailingWhitespaceAndCrlf) {
  std::stringstream ss{std::string{kRealGeneral} + "2 2 2\r\n1 1 1.5 \r\n2 2 -2.5\t\n"};
  const CooMatrix coo = mm::read_coo(ss);
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_DOUBLE_EQ(coo.entries()[1].value, -2.5);
}

}  // namespace
}  // namespace sparta
