// Dense operand views for the unified SpMV/SpMM execution surface.
//
// Every execution entry point (one-shot, region-reentrant, engine) takes its
// dense operands as rows x width blocks in row-major order: element (r, c)
// lives at data[r * stride + c], so the k values a row of the matrix stream
// multiplies are contiguous — the natural SIMD axis of the register-blocked
// SpMM kernels (spmv_kernels.hpp). A single vector is the width == 1,
// stride == 1 special case, which is how the historical SpMV signatures are
// expressed on top of this one operand model.
#pragma once

#include <span>

#include "common/types.hpp"

namespace sparta::kernels {

/// Widest register-blocked operand chunk of the host kernels. A product
/// splits its operand width greedily into chunks of 8, 4, 2 and 1 columns,
/// and the scratch of the symmetric and long-row plans holds this many
/// columns per row.
inline constexpr index_t kWidestChunk = 8;

/// Mutable rows x width dense block, row-major, leading dimension `stride`
/// (stride >= width; columns [width, stride) of each row are untouched
/// padding owned by the caller).
struct DenseBlockView {
  value_t* data = nullptr;
  index_t rows = 0;
  index_t width = 1;
  index_t stride = 1;

  /// View a contiguous vector as a rows x 1 block.
  static DenseBlockView from_vector(std::span<value_t> v) {
    return {v.data(), static_cast<index_t>(v.size()), 1, 1};
  }

  /// Sub-view of `count` columns starting at `first`; same rows and stride.
  [[nodiscard]] DenseBlockView columns(index_t first, index_t count) const {
    return {data + first, rows, count, stride};
  }

  /// Element (r, c).
  [[nodiscard]] value_t& at(index_t r, index_t c) const {
    return data[static_cast<std::size_t>(r) * static_cast<std::size_t>(stride) +
                static_cast<std::size_t>(c)];
  }

  /// First element of row r (the k-wide operand row the kernels read/write).
  [[nodiscard]] value_t* row(index_t r) const {
    return data + static_cast<std::size_t>(r) * static_cast<std::size_t>(stride);
  }
};

/// Read-only counterpart of DenseBlockView. A mutable view converts
/// implicitly, so `run(X, Y)` call sites can pass the same block type for
/// both operands.
struct ConstDenseBlockView {
  const value_t* data = nullptr;
  index_t rows = 0;
  index_t width = 1;
  index_t stride = 1;

  ConstDenseBlockView() = default;
  ConstDenseBlockView(const value_t* SPARTA_RESTRICT d, index_t r, index_t w, index_t s)
      : data(d), rows(r), width(w), stride(s) {}
  // NOLINTNEXTLINE(google-explicit-constructor): mutable -> const is safe.
  ConstDenseBlockView(const DenseBlockView& v)
      : data(v.data), rows(v.rows), width(v.width), stride(v.stride) {}

  /// View a contiguous vector as a rows x 1 block.
  static ConstDenseBlockView from_vector(std::span<const value_t> v) {
    return {v.data(), static_cast<index_t>(v.size()), 1, 1};
  }

  /// Sub-view of `count` columns starting at `first`; same rows and stride.
  [[nodiscard]] ConstDenseBlockView columns(index_t first, index_t count) const {
    return {data + first, rows, count, stride};
  }

  /// Element (r, c).
  [[nodiscard]] value_t at(index_t r, index_t c) const {
    return data[static_cast<std::size_t>(r) * static_cast<std::size_t>(stride) +
                static_cast<std::size_t>(c)];
  }

  /// First element of row r.
  [[nodiscard]] const value_t* row(index_t r) const {
    return data + static_cast<std::size_t>(r) * static_cast<std::size_t>(stride);
  }
};

}  // namespace sparta::kernels
