#include "sparse/delta_csr.hpp"

#include <algorithm>
#include <type_traits>

#include "check/contract.hpp"
#include "check/validate.hpp"
#include "sparse/build.hpp"

namespace sparta {

namespace {

/// Width that fits `max_delta`, or nullopt beyond 16 bits.
std::optional<DeltaWidth> width_for(index_t max_delta) {
  if (max_delta <= 0xff) return DeltaWidth::k8;
  if (max_delta <= 0xffff) return DeltaWidth::k16;
  return std::nullopt;
}

/// Parallel max intra-row delta (rows are independent; integer max is
/// order-insensitive, so the reduction is deterministic).
index_t max_delta_of(const CsrMatrix& csr, int nthreads) {
  const index_t nrows = csr.nrows();
  index_t max_delta = 0;
#pragma omp parallel for default(none) shared(csr, nrows) reduction(max : max_delta) \
    num_threads(nthreads) schedule(static)
  for (index_t i = 0; i < nrows; ++i) {
    const auto cols = csr.row_cols(i);
    index_t local = 0;
    for (std::size_t j = 1; j < cols.size(); ++j) {
      local = std::max(local, cols[j] - cols[j - 1]);
    }
    max_delta = std::max(max_delta, local);
  }
  return max_delta;
}

}  // namespace

std::optional<DeltaWidth> DeltaCsrMatrix::pick_width(const CsrMatrix& csr) {
  index_t max_delta = 0;
  for (index_t i = 0; i < csr.nrows(); ++i) {
    const auto cols = csr.row_cols(i);
    for (std::size_t j = 1; j < cols.size(); ++j) {
      max_delta = std::max(max_delta, cols[j] - cols[j - 1]);
    }
  }
  return width_for(max_delta);
}

std::optional<DeltaCsrMatrix> DeltaCsrMatrix::compress(const CsrMatrix& csr, int threads) {
  const int nthreads = build::resolve_threads(threads);
  build::PhaseRecorder rec{"delta"};

  // Count pass: the one inspection scan delta compression needs — the
  // widest intra-row column delta decides the stream width (or refusal).
  rec.phase("count");
  const auto width = width_for(max_delta_of(csr, nthreads));
  if (!width) return std::nullopt;

  DeltaCsrMatrix out;
  out.width_ = *width;

  // Fill pass: first_col and the delta stream are per-row independent.
  // Every slot of both arrays is written (a nonempty row writes its base
  // slot's unused delta as 0, matching the serial builder's zero prefill),
  // so the default-init numa_vector storage is fully first-touched here.
  // The row loop is instantiated per stream width, so it never branches on
  // the width.
  rec.phase("fill");
  const auto nrows = static_cast<std::ptrdiff_t>(csr.nrows());
  const auto nnz = static_cast<std::size_t>(csr.nnz());
  const auto src_rowptr = csr.rowptr();
  out.first_col_ = numa_vector<index_t>(static_cast<std::size_t>(nrows));
  const auto fill = [&](auto& deltas) {
    using Stream = std::remove_reference_t<decltype(deltas)>;
    deltas = Stream(nnz);
#pragma omp parallel for default(none) shared(out, csr, src_rowptr, nrows, deltas) \
    num_threads(nthreads) schedule(static)
    for (std::ptrdiff_t i = 0; i < nrows; ++i) {
      const auto k = static_cast<std::size_t>(i);
      const auto cols = csr.row_cols(static_cast<index_t>(i));
      const auto base = static_cast<std::size_t>(src_rowptr[k]);
      out.first_col_[k] = cols.empty() ? 0 : cols[0];
      if (!cols.empty()) deltas[base] = 0;
      for (std::size_t j = 1; j < cols.size(); ++j) {
        deltas[base + j] = static_cast<typename Stream::value_type>(cols[j] - cols[j - 1]);
      }
    }
  };
  if (*width == DeltaWidth::k8) {
    fill(out.deltas8_);
  } else {
    fill(out.deltas16_);
  }
  rec.finish(out.bytes());
  SPARTA_CHECK_STRUCTURE(out, csr);
  return out;
}

std::optional<DeltaCsrMatrix> DeltaCsrMatrix::compress_serial(const CsrMatrix& csr) {
  const auto width = pick_width(csr);
  if (!width) return std::nullopt;

  DeltaCsrMatrix out;
  out.width_ = *width;
  out.first_col_.resize(static_cast<std::size_t>(csr.nrows()));

  const auto nnz = static_cast<std::size_t>(csr.nnz());
  if (*width == DeltaWidth::k8) {
    out.deltas8_.assign(nnz, 0);
  } else {
    out.deltas16_.assign(nnz, 0);
  }

  for (index_t i = 0; i < csr.nrows(); ++i) {
    const auto cols = csr.row_cols(i);
    const auto base = static_cast<std::size_t>(csr.rowptr()[static_cast<std::size_t>(i)]);
    out.first_col_[static_cast<std::size_t>(i)] = cols.empty() ? 0 : cols[0];
    for (std::size_t j = 1; j < cols.size(); ++j) {
      const auto d = static_cast<std::uint32_t>(cols[j] - cols[j - 1]);
      if (*width == DeltaWidth::k8) {
        out.deltas8_[base + j] = static_cast<std::uint8_t>(d);
      } else {
        out.deltas16_[base + j] = static_cast<std::uint16_t>(d);
      }
    }
  }
  SPARTA_CHECK_STRUCTURE(out, csr);
  return out;
}

std::size_t DeltaCsrMatrix::bytes() const {
  return first_col_.size() * sizeof(index_t) + deltas8_.size() * sizeof(std::uint8_t) +
         deltas16_.size() * sizeof(std::uint16_t);
}

CsrMatrix DeltaCsrMatrix::decompress(const CsrMatrix& source) const {
  const auto rp = source.rowptr();
  const auto vals = source.values();
  numa_vector<index_t> colind(static_cast<std::size_t>(source.nnz()));
  for (index_t i = 0; i < source.nrows(); ++i) {
    const auto b = static_cast<std::size_t>(rp[static_cast<std::size_t>(i)]);
    const auto e = static_cast<std::size_t>(rp[static_cast<std::size_t>(i) + 1]);
    index_t col = b < e ? first_col_[static_cast<std::size_t>(i)] : 0;
    for (std::size_t j = b; j < e; ++j) {
      if (j > b) {
        col += width_ == DeltaWidth::k8 ? static_cast<index_t>(deltas8_[j])
                                        : static_cast<index_t>(deltas16_[j]);
      }
      colind[j] = col;
    }
  }
  return CsrMatrix{source.nrows(), source.ncols(), numa_vector<offset_t>(rp.begin(), rp.end()),
                   std::move(colind), numa_vector<value_t>(vals.begin(), vals.end())};
}

}  // namespace sparta
