// Seeded mutation fuzzer for the Matrix Market reader. Small fixtures are
// mutated at the banner words, the size-line numbers, entry tokens, signs,
// exponents and line endings, and by truncation and duplicated or dropped
// lines. Every mutant must either parse to the same COO, bit for bit, at 1
// and 4 threads, or fail at both with the same std::runtime_error, whose
// message starts with "matrix market: ". Only read_coo runs: a fuzzed size
// line can legally declare 2^31-1 rows, and building CSR from that would
// allocate for every row.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <exception>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "sparse/matrix_market.hpp"

namespace sparta {
namespace {

constexpr const char* kFixtures[] = {
    "%%MatrixMarket matrix coordinate real general\n"
    "% unsorted, with a duplicate\n"
    "5 4 9\n"
    "1 1 1.5\n"
    "2 3 -2.25e-3\n"
    "5 4 7\n"
    "3 1 0.125\n"
    "1 4 1e+10\n"
    "4 2 -0.5\n"
    "2 3 3.0\n"
    "5 1 6.02e23\n"
    "3 3 -1\n",

    "%%MatrixMarket matrix coordinate real symmetric\n"
    "6 6 9\n"
    "1 1 4.0\n"
    "2 1 -1.0\n"
    "2 2 4.0\n"
    "3 2 -1.0\n"
    "3 3 4.0\n"
    "4 3 -1.0\n"
    "5 1 0.5\n"
    "6 6 2.0\n"
    "6 5 -3.5\n",

    "%%MatrixMarket matrix coordinate pattern general\n"
    "4 4 8\n"
    "1 1\n"
    "1 2\n"
    "2 2\n"
    "2 4\n"
    "3 1\n"
    "3 3\n"
    "4 2\n"
    "4 4\n",

    "%%MatrixMarket matrix coordinate integer symmetric\n"
    "% comment\n"
    "\n"
    "5 5 7\n"
    "1 1 3\n"
    "2 1 -7\n"
    "3 3 12\n"
    "4 2 1\n"
    "4 4 -2\n"
    "5 3 9\n"
    "5 5 100\n",

    "%%MatrixMarket matrix coordinate real general\r\n"
    "3 3 6\r\n"
    "1 1 1.0\r\n"
    "1 3 2.0\r\n"
    "2 2 3.0\r\n"
    "3 1 4.0\r\n"
    "3 2 5.0\r\n"
    "3 3 6.0\r\n",
};

constexpr const char* kBannerWords[] = {
    "%%MatrixMarket", "%%matrixmarket", "matrix", "MATRIX", "vector", "coordinate", "array",
    "real", "Integer", "pattern", "complex", "general", "SYMMETRIC", "hermitian",
    "skew-symmetric", "", "%%MatrixMarket matrix"};

constexpr const char* kSizeNumbers[] = {
    "0", "1", "2", "3", "7", "-1", "+4", "1e3", "2147483647", "2147483648",
    "9223372036854775807", "99999999999999999999", "", "x"};

constexpr const char* kTokens[] = {
    "0", "1", "-1", "+1", "2147483647", "2147483648", "99999999999999999999", "1e-400",
    "1e-320", "1e400", "-1e400", "0x1p3", "0x", "nan", "inf", "-inf", "infinity", ".5", "5.",
    "1e", "1e+", "+", "-", "junk", "%", "1.5.5", "--1", "1,0"};

constexpr const char* kExponents[] = {"e", "e+", "e-", "e308", "e309", "e-324", "E-330", "e999"};

constexpr const char* kBlankLines[] = {"\n", "\r\n", " \t\n", "   \r\n", "%\n"};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  for (std::size_t b = 0; b < text.size();) {
    const std::size_t e = text.find('\n', b);
    const std::size_t stop = e == std::string::npos ? text.size() : e + 1;
    lines.push_back(text.substr(b, stop - b));
    b = stop;
  }
  return lines;
}

/// [begin, end) of each blank-separated token of `line`.
std::vector<std::pair<std::size_t, std::size_t>> tokens(const std::string& line) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r' ||
                               line[i] == '\n')) {
      ++i;
    }
    const std::size_t b = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' && line[i] != '\r' &&
           line[i] != '\n') {
      ++i;
    }
    if (i > b) out.emplace_back(b, i);
  }
  return out;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(const std::string& fixture) {
    std::vector<std::string> lines = split_lines(fixture);
    const int rounds = 1 + static_cast<int>(pick(3));
    for (int r = 0; r < rounds && !lines.empty(); ++r) apply(lines);
    std::string out;
    for (const std::string& l : lines) out += l;
    return out;
  }

 private:
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_.bounded(n)); }

  template <std::size_t N>
  const char* pick(const char* const (&words)[N]) {
    return words[pick(N)];
  }

  /// Replaces a random token of `line` (if it has any) with `with`.
  void replace_token(std::string& line, const std::string& with) {
    const auto toks = tokens(line);
    if (toks.empty()) return;
    const auto [b, e] = toks[pick(toks.size())];
    line.replace(b, e - b, with);
  }

  void apply(std::vector<std::string>& lines) {
    // Line 0 is the banner; the size line is the first line after it that is
    // neither blank nor a comment.
    std::size_t size_line = 1;
    while (size_line < lines.size() &&
           (tokens(lines[size_line]).empty() || lines[size_line][0] == '%')) {
      ++size_line;
    }
    std::string& any = lines[pick(lines.size())];
    switch (pick(10)) {
      case 0:  // banner word
        replace_token(lines[0], pick(kBannerWords));
        break;
      case 1:  // size-line number
        if (size_line < lines.size()) replace_token(lines[size_line], pick(kSizeNumbers));
        break;
      case 2:  // entry token
        replace_token(any, pick(kTokens));
        break;
      case 3: {  // sign
        const std::size_t at = pick(any.size() + 1);
        any.insert(at, 1, pick(2) == 0 ? '-' : '+');
        break;
      }
      case 4: {  // exponent appended to a token
        const auto toks = tokens(any);
        if (!toks.empty()) any.insert(toks[pick(toks.size())].second, pick(kExponents));
        break;
      }
      case 5:  // line ending: CRLF, lost newline, or an inserted blank line
        switch (pick(3)) {
          case 0:
            if (!any.empty() && any.back() == '\n') any.insert(any.size() - 1, 1, '\r');
            break;
          case 1:
            if (!any.empty() && any.back() == '\n') any.pop_back();
            break;
          default:
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size() + 1)),
                         pick(kBlankLines));
        }
        break;
      case 6: {  // truncation at a random byte
        const std::size_t keep = pick(lines.size());
        lines[keep].resize(pick(lines[keep].size() + 1));
        lines.resize(keep + 1);
        break;
      }
      case 7:  // duplicated line
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size())),
                     std::string{any});
        break;
      case 8:  // dropped line
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size())));
        break;
      default: {  // one byte replaced by a character the grammar cares about
        constexpr std::string_view kBytes = " \t\r\n%.-+eE0123456789x";
        if (!any.empty()) any[pick(any.size())] = kBytes[pick(kBytes.size())];
      }
    }
  }

  Xoshiro256 rng_;
};

/// What one read produced: the entries, or the error message.
struct Outcome {
  std::string error;
  index_t nrows = 0;
  index_t ncols = 0;
  std::vector<Triplet> entries;
};

Outcome read(const std::string& text, int threads) {
  Outcome o;
  std::stringstream ss{text};
  try {
    const CooMatrix coo = mm::read_coo(ss, threads);
    o.nrows = coo.nrows();
    o.ncols = coo.ncols();
    o.entries = coo.entries();
  } catch (const std::runtime_error& e) {
    o.error = e.what();
    if (o.error.rfind("matrix market: ", 0) != 0) o.error = "unnamed error: " + o.error;
  } catch (const std::exception& e) {
    o.error = std::string{"not a runtime_error: "} + e.what();
  }
  return o;
}

bool same_bits(const Outcome& a, const Outcome& b) {
  if (a.error != b.error || a.nrows != b.nrows || a.ncols != b.ncols ||
      a.entries.size() != b.entries.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.entries.size(); ++k) {
    const Triplet& x = a.entries[k];
    const Triplet& y = b.entries[k];
    if (x.row != y.row || x.col != y.col ||
        std::bit_cast<std::uint64_t>(x.value) != std::bit_cast<std::uint64_t>(y.value)) {
      return false;
    }
  }
  return true;
}

TEST(MatrixMarketFuzz, EveryMutantParsesIdenticallyOrFailsWithANamedError) {
  constexpr int kMutants = 25000;
  Mutator mutator{0x6d74'785f'6675'7a7aULL};
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = mutator.mutate(kFixtures[i % std::size(kFixtures)]);
    const Outcome one = read(text, 1);
    const Outcome four = read(text, 4);
    ASSERT_TRUE(same_bits(one, four))
        << "mutant " << i << " read differently at 1 and 4 threads:\n"
        << text << "\n1 thread: " << one.error << "\n4 threads: " << four.error;
    ASSERT_TRUE(one.error.empty() || one.error.rfind("matrix market: ", 0) == 0)
        << "mutant " << i << " failed without a named error:\n" << text << "\n" << one.error;
    if (one.error.empty()) {
      ++parsed;
    } else {
      ++rejected;
    }
  }
  // Both outcomes are common, so the mutations neither all break the input
  // nor all miss the grammar.
  EXPECT_GT(parsed, kMutants / 10);
  EXPECT_GT(rejected, kMutants / 10);
}

}  // namespace
}  // namespace sparta
