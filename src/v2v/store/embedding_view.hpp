// Non-owning, read-only view of an embedding matrix: `rows` vectors of
// `dims` floats whose row starts are `stride` floats apart. This is the
// currency between the storage layer and the index layer — a FlatIndex or
// IvfIndex built over a view serves an in-memory embed::Embedding, a plain
// MatrixF, and a MappedSnapshot's float matrix identically. The backing
// storage must outlive every view onto it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "v2v/common/check.hpp"
#include "v2v/common/matrix.hpp"

namespace v2v::store {

class EmbeddingView {
 public:
  EmbeddingView() = default;
  EmbeddingView(const float* data, std::size_t rows, std::size_t dims,
                std::size_t stride) noexcept
      : data_(data), rows_(rows), dims_(dims), stride_(stride) {
    V2V_CHECK(stride_ >= dims_, "EmbeddingView: stride < dims");
  }

  [[nodiscard]] static EmbeddingView of(const MatrixF& m) noexcept {
    return {m.data(), m.rows(), m.cols(), m.stride()};
  }
  /// Anything exposing a MatrixF via .matrix() (embed::Embedding in
  /// practice — templated so this header stays below the embed layer).
  template <typename E>
  [[nodiscard]] static EmbeddingView of(const E& e) noexcept {
    return of(e.matrix());
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t dimensions() const noexcept { return dims_; }
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }
  [[nodiscard]] const float* data() const noexcept { return data_; }

  [[nodiscard]] std::span<const float> row(std::size_t r) const noexcept {
    V2V_BOUNDS(r, rows_);
    return {data_ + r * stride_, dims_};
  }

  /// An owning copy of the viewed rows (wrap it in an embed::Embedding to
  /// outlive the backing storage).
  [[nodiscard]] MatrixF to_matrix() const {
    MatrixF out(rows_, dims_);
    for (std::size_t r = 0; r < rows_; ++r) {
      const auto src = row(r);
      std::copy(src.begin(), src.end(), out.row(r).begin());
    }
    return out;
  }

 private:
  const float* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t dims_ = 0;
  std::size_t stride_ = 0;
};

}  // namespace v2v::store
