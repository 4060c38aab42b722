#include "sparse/coo.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "sparse/build.hpp"

namespace sparta {

CooMatrix::CooMatrix(index_t nrows, index_t ncols) : nrows_(nrows), ncols_(ncols) {
  if (nrows < 0 || ncols < 0) {
    throw std::invalid_argument{"CooMatrix: negative dimension"};
  }
}

CooMatrix CooMatrix::from_triplets(index_t nrows, index_t ncols,
                                   std::vector<Triplet> entries) {
  CooMatrix coo{nrows, ncols};
  for (const Triplet& t : entries) {
    if (t.row < 0 || t.row >= nrows || t.col < 0 || t.col >= ncols) {
      throw std::out_of_range{"CooMatrix::from_triplets: coordinate out of range"};
    }
  }
  coo.entries_ = std::move(entries);
  return coo;
}

void CooMatrix::add(index_t row, index_t col, value_t value) {
  if (row < 0 || row >= nrows_ || col < 0 || col >= ncols_) {
    throw std::out_of_range{"CooMatrix::add: coordinate out of range"};
  }
  entries_.push_back({row, col, value});
}

void CooMatrix::compress() {
  auto key_less = [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  std::sort(entries_.begin(), entries_.end(), key_less);
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries_.size();) {
    Triplet acc = entries_[i];
    std::size_t j = i + 1;
    while (j < entries_.size() && entries_[j].row == acc.row && entries_[j].col == acc.col) {
      acc.value += entries_[j].value;
      ++j;
    }
    entries_[out++] = acc;
    i = j;
  }
  entries_.resize(out);
}

bool CooMatrix::is_compressed(int threads) const {
  // Below this many entries the scan costs less than starting a team.
  constexpr std::ptrdiff_t kParallelMinEntries = 1 << 15;
  const int nthreads = build::resolve_threads(threads);
  const std::vector<Triplet>& entries = entries_;
  const auto n = static_cast<std::ptrdiff_t>(entries.size());
  bool sorted = true;
#pragma omp parallel for default(none) shared(entries, n) num_threads(nthreads) \
    reduction(&& : sorted) schedule(static) if (n >= kParallelMinEntries)
  for (std::ptrdiff_t i = 1; i < n; ++i) {
    const Triplet& a = entries[static_cast<std::size_t>(i) - 1];
    const Triplet& b = entries[static_cast<std::size_t>(i)];
    sorted = sorted && (a.row < b.row || (a.row == b.row && a.col < b.col));
  }
  return sorted;
}

}  // namespace sparta
