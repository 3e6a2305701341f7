// The product of V2V training: one dense vector per vertex.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "v2v/common/matrix.hpp"

namespace v2v::embed {

class Embedding {
 public:
  Embedding() = default;
  Embedding(std::size_t vertices, std::size_t dimensions)
      : vectors_(vertices, dimensions) {}
  explicit Embedding(MatrixF vectors) : vectors_(std::move(vectors)) {}

  [[nodiscard]] std::size_t vertex_count() const noexcept { return vectors_.rows(); }
  [[nodiscard]] std::size_t dimensions() const noexcept { return vectors_.cols(); }

  [[nodiscard]] std::span<const float> vector(std::size_t v) const noexcept {
    return vectors_.row(v);
  }
  [[nodiscard]] std::span<float> vector(std::size_t v) noexcept { return vectors_.row(v); }

  [[nodiscard]] const MatrixF& matrix() const noexcept { return vectors_; }
  [[nodiscard]] MatrixF& matrix() noexcept { return vectors_; }

  /// Cosine similarity between two vertex vectors (0 for zero vectors).
  [[nodiscard]] double cosine_similarity(std::size_t a, std::size_t b) const;

  // Similarity search (nearest / analogy queries) lives in the index
  // layer: see v2v/index/embedding_queries.hpp and v2v/index/flat_index.hpp.

  /// Returns a copy with every row L2-normalized.
  [[nodiscard]] Embedding normalized() const;

  /// word2vec text format: header "n d", then one "id x1 ... xd" per row.
  /// Floats are written with max_digits10 significant digits, so
  /// save -> load -> save round-trips bitwise.
  void save_text(std::ostream& out) const;
  void save_text_file(const std::string& path) const;
  [[nodiscard]] static Embedding load_text(std::istream& in);
  [[nodiscard]] static Embedding load_text_file(const std::string& path);

 private:
  MatrixF vectors_;
};

}  // namespace v2v::embed
