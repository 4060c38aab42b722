#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "sparse/build.hpp"

namespace sparta::mm {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error{"matrix market: " + what};
}

/// Whitespace inside a line: the C-locale isspace set minus the newline
/// that ends the line.
bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'; }

const char* skip_blanks(const char* p, const char* e) {
  while (p != e && is_blank(*p)) ++p;
  return p;
}

/// The rule for a line [b, e) the reader skips, before the size line and in
/// the body alike: blank (empty or whitespace only), or a '%' comment.
bool skipped(const char* b, const char* e) { return skip_blanks(b, e) == e || *b == '%'; }

/// Most entry lines of at least `min_line` bytes (newline included; the last
/// line may lack it) that `bytes` bytes can hold.
long long most_entries(long long bytes, long long min_line) { return (bytes + 1) / min_line; }

/// Most entry lines the rest of `is` can hold. A stream that cannot seek gets
/// a fixed cap instead: the entry list then grows past it.
long long entries_left(std::istream& is, long long min_line) {
  constexpr long long kUnseekableCap = 1 << 20;
  if (!is.good()) return 0;
  const std::streampos here = is.tellg();
  if (here == std::streampos(-1)) return kUnseekableCap;
  const std::streampos end = is.seekg(0, std::ios::end).tellg();
  is.clear();
  is.seekg(here);
  if (end == std::streampos(-1)) return kUnseekableCap;
  return most_entries(static_cast<long long>(end - here), min_line);
}

/// The body of a stream as blocks of whole lines (DESIGN.md §13). The buffer
/// starts at 64 KiB and doubles per block up to 16 MiB, so a small input never
/// allocates a full block and a large one costs 16 MiB however big it is.
class LineBlocks {
 public:
  static constexpr std::size_t kMaxBlock = std::size_t{16} << 20;

  explicit LineBlocks(std::istream& is) : is_(is) {}

  /// The next block: it ends just past a newline, or at the end of the stream
  /// with a NUL after it. Empty once the stream is exhausted. Throws if one
  /// line does not fit in kMaxBlock.
  std::string_view next() {
    if (eof_) return {};  // the last call handed out the rest
    if (cap_ < kMaxBlock) {
      grow();
    } else {
      std::memmove(buf_.get(), buf_.get() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    for (;;) {
      is_.read(buf_.get() + end_, static_cast<std::streamsize>(cap_ - end_));
      end_ += static_cast<std::size_t>(is_.gcount());
      if (!is_) {  // a read that ends early sets failbit: the last block
        eof_ = true;
        buf_[end_] = '\0';
        return {buf_.get(), end_};
      }
      const std::size_t nl = std::string_view{buf_.get(), end_}.rfind('\n');
      if (nl != std::string_view::npos) {
        begin_ = nl + 1;
        return {buf_.get(), begin_};
      }
      grow();  // one line fills the whole buffer
    }
  }

 private:
  /// Doubles the buffer (plus one byte for the final block's NUL), keeping
  /// the unconsumed bytes [begin_, end_) at its front.
  void grow() {
    if (cap_ == kMaxBlock) fail("line longer than 16 MiB");
    const std::size_t cap = std::min(std::max(2 * cap_, std::size_t{64} << 10), kMaxBlock);
    auto buf = std::make_unique_for_overwrite<char[]>(cap + 1);
    if (end_ > begin_) std::memcpy(buf.get(), buf_.get() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    buf_ = std::move(buf);
    cap_ = cap;
  }

  std::istream& is_;
  std::unique_ptr<char[]> buf_;
  std::size_t cap_ = 0;
  std::size_t begin_ = 0;  // unconsumed bytes are [begin_, end_)
  std::size_t end_ = 0;
  bool eof_ = false;
};

/// Blocks below this size are parsed by the calling thread alone, chunk after
/// chunk (the same chunks, so the same result): starting a team costs more
/// than it saves there.
constexpr std::size_t kMinParallelBlock = std::size_t{16} << 10;

/// What the banner and size line fix about every entry line.
struct EntryFormat {
  long long nrows = 0;
  long long ncols = 0;
  bool pattern = false;
  bool symmetric = false;

  /// Bytes of the shortest valid entry line: "1 1 1\n", or "1 1\n" for a
  /// pattern file.
  [[nodiscard]] long long min_line() const { return pattern ? 4 : 6; }
};

/// End of the line that starts at `p`: its newline, or `e` when the line is
/// the unterminated last one.
const char* line_end(const char* p, const char* e) {
  const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(e - p));
  return nl != nullptr ? static_cast<const char*>(nl) : e;
}

const char* next_line(const char* le, const char* e) { return le == e ? e : le + 1; }

// Numbers are read as strtoll/strtod read them: blanks skipped, then the
// longest number prefix, which need not end at a blank ("1-2" is 1 then -2).
// std::from_chars takes the common token; a leading '+', a hex float, an
// out-of-range value, or a token the number does not span falls back to
// strtoll/strtod at the same place. The token starts at a non-blank byte, so
// the fallback stops at the line's newline (or the final block's NUL).
template <typename T>
bool read_number(const char*& p, const char* e, T& out) {
  p = skip_blanks(p, e);
  if (p == e) return false;
  const auto [end, ec] = std::from_chars(p, e, out);
  if (ec == std::errc{} && (end == e || is_blank(*end))) {
    p = end;
    return true;
  }
  char* stop = nullptr;
  if constexpr (std::is_integral_v<T>) {
    out = std::strtoll(p, &stop, 10);
  } else {
    out = std::strtod(p, &stop);
  }
  if (stop == p) return false;
  p = stop;
  return true;
}

/// Parses the entry line [b, e) into `t`. Returns the name of its first
/// error, or nullptr. The checks run in a fixed order, so a line with several
/// faults always reports the same one.
const char* parse_entry(const char* b, const char* e, const EntryFormat& f, Triplet& t) {
  long long r = 0;
  long long c = 0;
  if (!read_number(b, e, r) || !read_number(b, e, c)) return "bad entry line";
  double v = 1.0;
  if (!f.pattern) {
    if (!read_number(b, e, v)) return "missing value";
    if (!std::isfinite(v)) return "non-finite value";
  }
  if (skip_blanks(b, e) != e) return "trailing tokens";
  if (r < 1 || r > f.nrows || c < 1 || c > f.ncols) return "entry out of range";
  // The format stores only the lower triangle of a symmetric matrix
  // (Matrix Market spec §4): an upper-triangle entry is malformed, not an
  // alternative convention, and silently mirroring it would double-count
  // against files that also carry the paired lower entry.
  if (f.symmetric && c > r) return "upper-triangle entry in symmetric file";
  t = {static_cast<index_t>(r - 1), static_cast<index_t>(c - 1), v};
  return nullptr;
}

/// One thread's share of a block: whole lines [begin, end).
struct Chunk {
  const char* begin = nullptr;
  const char* end = nullptr;
  long long entries = 0;  // entry lines in the chunk
  long long first = 0;    // entry lines of the block before the chunk
  long long off_diagonal = 0;
  const char* error = nullptr;  // the first bad line's error, and that line
  std::string_view bad_line;
};

long long count_entries(const char* p, const char* e) {
  long long n = 0;
  while (p != e) {
    const char* le = line_end(p, e);
    n += skipped(p, le) ? 0 : 1;
    p = next_line(le, e);
  }
  return n;
}

/// Parses the chunk's first `n` entry lines into out[0, n), stopping at the
/// first bad one.
void parse_chunk(Chunk& ch, const EntryFormat& f, Triplet* out, long long n) {
  const char* p = ch.begin;
  long long k = 0;
  long long off_diagonal = 0;
  while (k < n && p != ch.end) {
    const char* le = line_end(p, ch.end);
    if (!skipped(p, le)) {
      Triplet& t = out[k];
      const char* error = parse_entry(p, le, f, t);
      if (error != nullptr) {
        ch.error = error;
        ch.bad_line = {p, static_cast<std::size_t>(le - p)};
        break;
      }
      if (f.symmetric && t.row != t.col) ++off_diagonal;
      ++k;
    }
    p = next_line(le, ch.end);
  }
  ch.off_diagonal = off_diagonal;
}

/// Appends the entries of `block`, at most `need` of them, to `triplets`, and
/// returns how many. Lines past the `need`-th entry line are not read. A
/// chunk per thread counts its entry lines, a scan gives each chunk its
/// output slots, and each chunk then parses into its slots in place; the
/// first bad line in file order is thrown, outside the parallel regions.
long long parse_block(std::string_view block, const EntryFormat& f, long long need,
                      int nthreads, std::vector<Triplet>& triplets, long long& off_diagonal) {
  const int nchunks = nthreads;
  std::vector<Chunk> chunks(static_cast<std::size_t>(nchunks));
  const char* const base = block.data();
  std::size_t at = 0;
  for (int c = 0; c < nchunks; ++c) {
    Chunk& ch = chunks[static_cast<std::size_t>(c)];
    ch.begin = base + at;
    // End at the first line start at or past the next even split point.
    at = std::max(at, build::chunk_begin(block.size(), nchunks, c + 1));
    if (at > 0 && at < block.size() && block[at - 1] != '\n') {
      const std::size_t nl = block.find('\n', at);
      at = nl == std::string_view::npos ? block.size() : nl + 1;
    }
    ch.end = base + at;
  }

  const bool parallel = block.size() >= kMinParallelBlock;
#pragma omp parallel for default(none) shared(chunks, nchunks) num_threads(nthreads) \
    schedule(static) if (parallel)
  for (int c = 0; c < nchunks; ++c) {
    Chunk& ch = chunks[static_cast<std::size_t>(c)];
    ch.entries = count_entries(ch.begin, ch.end);
  }

  long long total = 0;
  for (Chunk& ch : chunks) {
    ch.first = total;
    total += ch.entries;
  }
  // A valid entry line takes at least min_line bytes, so any entry lines past
  // the first most_entries + 1 follow a bad one: parsing stops there without
  // sizing the list for the rest.
  const long long take = std::min(
      {total, need, most_entries(static_cast<long long>(block.size()), f.min_line()) + 1});
  const std::size_t done = triplets.size();
  triplets.resize(done + static_cast<std::size_t>(take));
  Triplet* const out = triplets.data() + done;

#pragma omp parallel for default(none) shared(chunks, nchunks, f, out, take) \
    num_threads(nthreads) schedule(static) if (parallel)
  for (int c = 0; c < nchunks; ++c) {
    Chunk& ch = chunks[static_cast<std::size_t>(c)];
    if (ch.first < take) parse_chunk(ch, f, out + ch.first, std::min(ch.entries, take - ch.first));
  }

  for (const Chunk& ch : chunks) {
    if (ch.error != nullptr) fail(std::string{ch.error} + ": " + std::string{ch.bad_line});
    off_diagonal += ch.off_diagonal;
  }
  return take;
}

}  // namespace

CooMatrix read_coo(std::istream& is, int threads) {
  const int nthreads = build::resolve_threads(threads);
  std::string line;
  if (!std::getline(is, line)) fail("empty stream");

  std::istringstream header{line};
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket") fail("missing %%MatrixMarket banner");
  if (lower(object) != "matrix" || lower(format) != "coordinate") {
    fail("only 'matrix coordinate' is supported");
  }
  field = lower(field);
  symmetry = lower(symmetry);
  EntryFormat f;
  f.pattern = field == "pattern";
  if (!f.pattern && field != "real" && field != "integer") {
    fail("unsupported field type '" + field + "'");
  }
  f.symmetric = symmetry == "symmetric";
  if (!f.symmetric && symmetry != "general") {
    fail("unsupported symmetry '" + symmetry + "'");
  }

  // Skip comments and blank lines, find the size line.
  long long nnz = 0;
  bool sized = false;
  while (!sized && std::getline(is, line)) {
    if (skipped(line.data(), line.data() + line.size())) continue;
    std::istringstream ss{line};
    if (!(ss >> f.nrows >> f.ncols >> nnz) || !(ss >> std::ws).eof()) {
      fail("bad size line: " + line);
    }
    sized = true;
  }
  if (!sized) fail("missing size line");
  if (f.nrows < 0 || f.ncols < 0 || nnz < 0) fail("negative size: " + line);
  if (f.nrows > std::numeric_limits<index_t>::max() ||
      f.ncols > std::numeric_limits<index_t>::max()) {
    fail("matrix dimensions exceed 32-bit index range");
  }
  // Both dimensions fit in 32 bits, so the product cannot overflow.
  if (nnz > f.nrows * f.ncols) fail("more entries than nrows*ncols: " + line);
  if (f.symmetric && f.nrows != f.ncols) fail("symmetric matrix is not square: " + line);

  // The declared count is untrusted until the entries are read, so the
  // triplet list is reserved to it only as far as the rest of the input can
  // hold. Symmetric files regrow once to the exact mirrored size counted
  // during the parse (diagonal entries have no mirror, so a blanket 2*nnz
  // reserve would over-allocate).
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(std::min(nnz, entries_left(is, f.min_line()))));
  long long seen = 0;
  long long off_diagonal = 0;
  LineBlocks blocks{is};
  while (seen < nnz) {
    const std::string_view block = blocks.next();
    if (block.empty()) break;
    seen += parse_block(block, f, nnz - seen, nthreads, triplets, off_diagonal);
  }
  if (seen != nnz) fail("fewer entries than declared");
  if (off_diagonal > 0) {
    triplets.reserve(static_cast<std::size_t>(nnz + off_diagonal));
    const std::size_t stored = triplets.size();
    for (std::size_t k = 0; k < stored; ++k) {
      const Triplet t = triplets[k];  // copy: don't hold a reference across push_back
      if (t.row != t.col) triplets.push_back({t.col, t.row, t.value});
    }
  }
  CooMatrix coo = CooMatrix::from_triplets(static_cast<index_t>(f.nrows),
                                           static_cast<index_t>(f.ncols), std::move(triplets));
  // mm::write emits row order, so its files skip the sort; symmetric files
  // (mirrors appended) and column-major files still take it.
  if (!coo.is_compressed(nthreads)) coo.compress();
  return coo;
}

CsrMatrix read_csr_file(const std::string& path, int threads) {
  std::ifstream f{path};
  if (!f) fail("cannot open '" + path + "'");
  return CsrMatrix::from_coo(read_coo(f, threads), threads);
}

void write(std::ostream& os, const CsrMatrix& m) {
  os << "%%MatrixMarket matrix coordinate real general\n";
  os << m.nrows() << ' ' << m.ncols() << ' ' << m.nnz() << '\n';
  os << std::setprecision(17);
  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      os << (i + 1) << ' ' << (cols[j] + 1) << ' ' << vals[j] << '\n';
    }
  }
}

void write_file(const std::string& path, const CsrMatrix& m) {
  std::ofstream f{path};
  if (!f) fail("cannot open '" + path + "' for writing");
  write(f, m);
}

}  // namespace sparta::mm
