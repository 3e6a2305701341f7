// Row-major dense matrix of floats. This is the storage for embeddings and
// the ML substrate: row = one vertex vector. Kept intentionally minimal —
// span-style row access, no expression templates.
//
// Storage is 64-byte aligned and the row stride is padded up to a cache-line
// multiple (when the element size divides 64), so every row starts on a
// cache-line boundary. The SIMD kernels (common/kernels.hpp) rely on this
// for clean line traffic, and concurrent Hogwild writers to adjacent rows
// never false-share a line. Consequence: the backing store is NOT a dense
// rows*cols array when cols is not a multiple of the line width — iterate
// row-by-row (`row(r)` spans exactly `cols()` elements) instead of assuming
// `data()[r * cols + c]`.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "v2v/common/aligned.hpp"
#include "v2v/common/check.hpp"

namespace v2v {

template <typename T>
class Matrix {
 public:
  /// Elements per row in the backing store (>= cols); rows start at
  /// multiples of this.
  [[nodiscard]] static constexpr std::size_t padded_stride(std::size_t cols) noexcept {
    if constexpr (kCacheLineBytes % sizeof(T) == 0) {
      constexpr std::size_t line = kCacheLineBytes / sizeof(T);
      return (cols + line - 1) / line * line;
    } else {
      return cols;
    }
  }

  Matrix() = default;
  /// Throws std::length_error when the padded stride or rows * stride
  /// does not fit in size_t (a wrapped size would under-allocate).
  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), stride_(checked_stride(cols)),
        data_(checked_elements(rows, stride_), fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] std::span<T> row(std::size_t r) noexcept {
    V2V_BOUNDS(r, rows_);
    return {data_.data() + r * stride_, cols_};
  }
  [[nodiscard]] std::span<const T> row(std::size_t r) const noexcept {
    V2V_BOUNDS(r, rows_);
    return {data_.data() + r * stride_, cols_};
  }

  [[nodiscard]] T& operator()(std::size_t r, std::size_t c) noexcept {
    V2V_BOUNDS(r, rows_);
    V2V_BOUNDS(c, cols_);
    return data_[r * stride_ + c];
  }
  [[nodiscard]] const T& operator()(std::size_t r, std::size_t c) const noexcept {
    V2V_BOUNDS(r, rows_);
    V2V_BOUNDS(c, cols_);
    return data_[r * stride_ + c];
  }

  /// Start of the (64-byte aligned) backing store. Row r begins at
  /// data() + r * stride(); the tail of each row past cols() is padding.
  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Elementwise equality over the logical rows*cols payload; padding is
  /// ignored.
  friend bool operator==(const Matrix& a, const Matrix& b) {
    if (a.rows_ != b.rows_ || a.cols_ != b.cols_) return false;
    for (std::size_t r = 0; r < a.rows_; ++r) {
      const auto ra = a.row(r);
      const auto rb = b.row(r);
      if (!std::equal(ra.begin(), ra.end(), rb.begin())) return false;
    }
    return true;
  }

 private:
  [[nodiscard]] static std::size_t checked_stride(std::size_t cols) {
    const std::size_t stride = padded_stride(cols);
    // Rounding up past SIZE_MAX wraps to a value below cols.
    if (stride < cols) throw std::length_error("Matrix: row stride overflows size_t");
    return stride;
  }
  [[nodiscard]] static std::size_t checked_elements(std::size_t rows,
                                                    std::size_t stride) {
    if (stride != 0 && rows > SIZE_MAX / stride) {
      throw std::length_error("Matrix: rows * stride overflows size_t");
    }
    return rows * stride;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  AlignedVector<T> data_;
};

using MatrixF = Matrix<float>;
using MatrixD = Matrix<double>;

}  // namespace v2v
