// Tests for Matrix Market I/O: round-trips, symmetric/pattern handling,
// malformed-input rejection, and the symmetric-file -> SymCsr pipeline
// (the parsed eager-mirror matrix and the compressed storage must agree
// bit-for-bit through expand()).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

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

// Golden fixtures, shared by the tests that pin their contents and by the
// thread-parity test.
constexpr const char* kGeneralWithComments =
    "%%MatrixMarket matrix coordinate real general\n"
    "% a comment\n"
    "%another\n"
    "3 3 2\n"
    "1 1 5.0\n"
    "3 2 -1.5\n";

// 4x4 lower-triangle file with a present, an explicitly zero, and an absent
// diagonal.
constexpr const char* kSymmetricGolden =
    "%%MatrixMarket matrix coordinate real symmetric\n"
    "% 4x4 SPD-shaped: diag(0)=2.5, diag(1) explicit zero, diag(2) absent\n"
    "4 4 6\n"
    "1 1 2.5\n"
    "2 2 0.0\n"
    "2 1 -1.25\n"
    "3 1 0.5\n"
    "4 3 1.0\n"
    "4 4 3.0\n";

constexpr const char* kSymmetricPattern =
    "%%MatrixMarket matrix coordinate pattern symmetric\n"
    "3 3 3\n"
    "1 1\n"
    "2 1\n"
    "3 2\n";

constexpr const char* kSymmetricInteger =
    "%%MatrixMarket matrix coordinate integer symmetric\n"
    "2 2 2\n"
    "1 1 4\n"
    "2 1 -3\n";

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
  std::stringstream ss{kGeneralWithComments};
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
  std::stringstream ss{kSymmetricGolden};
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
  std::stringstream pattern{kSymmetricPattern};
  const CsrMatrix mp = CsrMatrix::from_coo(mm::read_coo(pattern));
  EXPECT_EQ(mp.nnz(), 5);
  EXPECT_DOUBLE_EQ(mp.row_vals(0)[1], 1.0);  // mirrored unit value
  const SymCsrMatrix sp = SymCsrMatrix::build(mp);
  EXPECT_EQ(sp.lower_nnz(), 2);
  EXPECT_EQ(sp.expand(), mp);

  std::stringstream integer{kSymmetricInteger};
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
  for (const int threads : {1, 4}) {
    PipeBuf buf{ss.str()};
    std::istream is{&buf};
    EXPECT_EQ(CsrMatrix::from_coo(mm::read_coo(is, threads)), m) << threads << " threads";
  }
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

// --- Blank lines, square symmetric files ------------------------------------

TEST(MatrixMarket, RejectsNonSquareSymmetric) {
  expect_parse_error(
      "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n2 1 5.0\n",
      "symmetric matrix is not square");
}

// A line holding only whitespace is blank, before the size line and in the
// body, whatever the line ending.
TEST(MatrixMarket, SkipsWhitespaceOnlyLinesWithAnyLineEnding) {
  const std::string lf = std::string{kRealGeneral} +
                         "\n \t\n2 2 2\n1 1 1.5\n\n   \n\t\n2 2 -2.5\n";
  std::string crlf;
  for (const char c : lf) crlf += c == '\n' ? std::string{"\r\n"} : std::string(1, c);
  for (const std::string& text : {lf, crlf}) {
    std::stringstream ss{text};
    const CooMatrix coo = mm::read_coo(ss);
    ASSERT_EQ(coo.nnz(), 2);
    EXPECT_EQ(coo.entries()[0], (Triplet{0, 0, 1.5}));
    EXPECT_EQ(coo.entries()[1], (Triplet{1, 1, -2.5}));
  }
}

// --- The parallel reader: thread parity, blocks, error order ----------------

CooMatrix read_text(const std::string& text, int threads) {
  std::stringstream ss{text};
  return mm::read_coo(ss, threads);
}

/// Dimensions, coordinates and value bits all equal.
void expect_same_bits(const CooMatrix& a, const CooMatrix& b) {
  ASSERT_EQ(a.nrows(), b.nrows());
  ASSERT_EQ(a.ncols(), b.ncols());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (std::size_t k = 0; k < a.entries().size(); ++k) {
    const Triplet& x = a.entries()[k];
    const Triplet& y = b.entries()[k];
    ASSERT_EQ(x.row, y.row) << "entry " << k;
    ASSERT_EQ(x.col, y.col) << "entry " << k;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(x.value), std::bit_cast<std::uint64_t>(y.value))
        << "entry " << k;
  }
}

/// `m` as a coordinate file with the given field; a symmetric file keeps the
/// lower triangle. Column-major order leaves the entries unsorted, so the
/// reader must sort them.
std::string to_mtx(const CsrMatrix& m, const std::string& field, bool symmetric,
                   bool column_major) {
  std::vector<Triplet> entries;
  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      if (!symmetric || cols[j] <= i) entries.push_back({i, cols[j], vals[j]});
    }
  }
  if (column_major) {
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Triplet& a, const Triplet& b) { return a.col < b.col; });
  }
  std::ostringstream os;
  os << "%%MatrixMarket matrix coordinate " << field << (symmetric ? " symmetric" : " general")
     << "\n% generated\n"
     << m.nrows() << ' ' << m.ncols() << ' ' << entries.size() << '\n'
     << std::setprecision(17);
  for (const Triplet& t : entries) {
    os << t.row + 1 << ' ' << t.col + 1;
    if (field == "real") os << ' ' << t.value;
    if (field == "integer") os << ' ' << std::llround(t.value * 100.0);
    os << '\n';
  }
  return os.str();
}

TEST(MatrixMarketParallel, FixturesAndGeneratedFilesReadIdenticallyAtOneAndFourThreads) {
  std::vector<std::string> texts{kGeneralWithComments, kSymmetricGolden, kSymmetricPattern,
                                 kSymmetricInteger};
  const CsrMatrix general = gen::powerlaw(3000, 1.9, 200, 31);
  const CsrMatrix symmetric = gen::stencil5(40, 30);
  for (const bool column_major : {false, true}) {
    for (const char* field : {"real", "integer", "pattern"}) {
      texts.push_back(to_mtx(general, field, false, column_major));
      texts.push_back(to_mtx(symmetric, field, true, column_major));
    }
  }
  for (const std::string& text : texts) {
    SCOPED_TRACE(text.substr(0, text.find('\n', 50)));
    expect_same_bits(read_text(text, 1), read_text(text, 4));
  }
  // Column-major and row-major files of one matrix meet after the sort.
  expect_same_bits(read_text(to_mtx(general, "real", false, true), 4),
                   read_text(to_mtx(general, "real", false, false), 4));
}

// The body is read in blocks of whole lines (64 KiB first, doubling to
// 16 MiB). Padding a matrix with comment lines and trailing blanks past the
// largest block must not change what is read: lines cut by a block edge are
// carried into the next block.
TEST(MatrixMarketParallel, InputLargerThanOneBlockReadsLikeOneBlock) {
  const CsrMatrix m = gen::banded(300, 10, 4, 32);
  std::stringstream compact;
  mm::write(compact, m);
  const std::string text = compact.str();
  ASSERT_LT(text.size(), std::size_t{64} << 10);  // one block

  const std::string comment = "%" + std::string(997, 'c') + "\n";
  std::string padded;
  std::size_t line = 0;
  for (std::size_t b = 0; b < text.size();) {
    const std::size_t e = text.find('\n', b);
    padded.append(text, b, e - b);
    padded += std::string(line % 7, ' ') + "\n";
    if (++line > 2) {
      for (int k = 0; k < 16; ++k) padded += comment;
    }
    b = e + 1;
  }
  ASSERT_GT(padded.size(), std::size_t{17} << 20);  // past the 16 MiB cap

  const CooMatrix want = read_text(text, 1);
  expect_same_bits(read_text(padded, 1), want);
  expect_same_bits(read_text(padded, 4), want);
  PipeBuf buf{padded};
  std::istream is{&buf};
  expect_same_bits(mm::read_coo(is, 3), want);
}

TEST(MatrixMarketParallel, RejectsLineLongerThanTheLargestBlock) {
  const std::string text =
      std::string{kRealGeneral} + "2 2 2\n1 1 1.0" + std::string(std::size_t{17} << 20, ' ') +
      "\n2 2 1.0\n";
  for (const int threads : {1, 4}) {
    std::stringstream ss{text};
    try {
      mm::read_coo(ss, threads);
      ADD_FAILURE() << "accepted a 17 MiB line";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "matrix market: line longer than 16 MiB");
    }
  }
}

TEST(MatrixMarketParallel, ErrorNamesTheEarlierOfTwoBadLinesInDifferentChunks) {
  const CsrMatrix m = gen::banded(400, 10, 5, 33);
  std::stringstream ss;
  mm::write(ss, m);
  std::string text = ss.str();
  // Replace the entry lines at about 1/4 and 3/4 of the body: with four
  // threads they fall in the second and the fourth chunk.
  const auto replace_line_at = [&text](std::size_t at, const std::string& with) {
    const std::size_t b = text.find('\n', at) + 1;
    text.replace(b, text.find('\n', b) - b, with);
  };
  replace_line_at(text.size() * 3 / 4, "bad");
  replace_line_at(text.size() / 4, "7 7 nan");
  for (const int threads : {1, 2, 4, 7}) {
    std::stringstream in{text};
    try {
      mm::read_coo(in, threads);
      ADD_FAILURE() << "accepted two bad lines";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "matrix market: non-finite value: 7 7 nan") << threads;
    }
  }
}

// Outcomes of single entry lines, pinned to what the serial
// getline/strtoll/strtod reader produced; from_chars must not move any of
// them. Each body follows the size line "3 3 1".
struct TokenCase {
  const char* body;
  const char* error;  // expected message prefix, or nullptr if the line parses
  Triplet want;
};

TEST(MatrixMarketParallel, TokenTableMatchesTheSerialReader) {
  const TokenCase cases[] = {
      {"+1 +2 +3.5\n", nullptr, {0, 1, 3.5}},
      {"   1 1 2.0\n", nullptr, {0, 0, 2.0}},
      {"\t2 3\t-1\n", nullptr, {1, 2, -1.0}},
      {"1 1 1e-400\n", nullptr, {0, 0, 0.0}},
      {"1 1 1e-320\n", nullptr, {0, 0, 1e-320}},
      {"1 1 0x1p3\n", nullptr, {0, 0, 8.0}},
      {"1 1 .5\n", nullptr, {0, 0, 0.5}},
      {"1 1 -0\n", nullptr, {0, 0, -0.0}},
      {"1 1 1e+2\n", nullptr, {0, 0, 100.0}},
      {"1 2-3.5\n", nullptr, {0, 1, -3.5}},  // numbers need no blank between them
      {"001 3 7\n", nullptr, {0, 2, 7.0}},
      {"1 1 1.0", nullptr, {0, 0, 1.0}},  // no final newline
      {"1 1 1.0\ngarbage\n", nullptr, {0, 0, 1.0}},  // past the declared count
      {"1 1 1.0\n1 1\n", nullptr, {0, 0, 1.0}},
      {"1 1 1e400\n", "non-finite value: 1 1 1e400", {}},
      {"1 1 -1e400\n", "non-finite value", {}},
      {"1 1 nan\n", "non-finite value", {}},
      {"12345678901234567890 1 1.0\n", "entry out of range: 12345678901234567890 1 1.0", {}},
      {"1 -12345678901234567890 1.0\n", "entry out of range", {}},
      {"0 1 1.0\n", "entry out of range", {}},
      {"1 1 1.5junk\n", "trailing tokens: 1 1 1.5junk", {}},
      {"1 1 1e\n", "trailing tokens", {}},
      {"1 1 0x\n", "trailing tokens", {}},
      {"1 1 +\n", "missing value", {}},
      {"1 1\n", "missing value", {}},
      {"1 x 1.0\n", "bad entry line: 1 x 1.0", {}},
      {"  % indented comment\n", "bad entry line", {}},
      {"1 1 1.0 \r\n", nullptr, {0, 0, 1.0}},
  };
  for (const TokenCase& c : cases) {
    const std::string text = std::string{kRealGeneral} + "3 3 1\n" + c.body;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string{c.body} + " at " + std::to_string(threads) + " threads");
      if (c.error != nullptr) {
        std::stringstream ss{text};
        try {
          mm::read_coo(ss, threads);
          ADD_FAILURE() << "accepted";
        } catch (const std::runtime_error& e) {
          EXPECT_EQ(std::string{e.what()}.rfind(std::string{"matrix market: "} + c.error, 0), 0u)
              << e.what();
        }
        continue;
      }
      const CooMatrix coo = read_text(text, threads);
      ASSERT_EQ(coo.nnz(), 1);
      const Triplet& t = coo.entries()[0];
      EXPECT_EQ(t.row, c.want.row);
      EXPECT_EQ(t.col, c.want.col);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(t.value), std::bit_cast<std::uint64_t>(c.want.value));
    }
  }
}

}  // namespace
}  // namespace sparta
