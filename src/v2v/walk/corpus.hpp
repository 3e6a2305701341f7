// A corpus of vertex sequences ("sentences") produced by random walks,
// held in RAM. Stored flat (tokens + offsets) so the CBOW trainer streams
// it with zero pointer chasing, and read through the CorpusReader
// interface like the disk spool. generate_corpus and the other RAM
// producers fill it through CorpusDriver::collect (walker.hpp):
// one shard per chunk of start vertices, merged in chunk order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "v2v/walk/corpus_reader.hpp"

namespace v2v::walk {

class Corpus final : public CorpusReader {
 public:
  Corpus() = default;

  void reserve(std::size_t walks, std::size_t tokens) {
    offsets_.reserve(walks + 1);
    tokens_.reserve(tokens);
  }

  void add_walk(std::span<const graph::VertexId> walk) {
    tokens_.insert(tokens_.end(), walk.begin(), walk.end());
    offsets_.push_back(tokens_.size());
  }

  /// Appends all walks of `other` (used to merge per-thread shards).
  void append(const Corpus& other);

  /// Move-append: as above, but steals `other`'s token storage (taking it
  /// wholesale when this corpus is still empty) and leaves `other` empty.
  /// Shard merging uses this so peak memory is one corpus, not two.
  void append(Corpus&& other);

  [[nodiscard]] std::size_t walk_count() const noexcept override {
    return offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t token_count() const noexcept override {
    return tokens_.size();
  }

  [[nodiscard]] std::span<const graph::VertexId> walk(
      std::size_t i) const noexcept override {
    return {tokens_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  [[nodiscard]] std::span<const graph::VertexId> tokens() const noexcept { return tokens_; }

  /// Scans every token (0 when there are none).
  [[nodiscard]] graph::VertexId max_token() const noexcept override;

  /// Occurrence count per vertex id in [0, vocab); ids >= vocab are ignored.
  [[nodiscard]] std::vector<std::uint64_t> vertex_frequencies(
      std::size_t vocab) const override;

 private:
  std::vector<graph::VertexId> tokens_;
  std::vector<std::size_t> offsets_{0};
};

}  // namespace v2v::walk
