// Read-only corpus interface that the trainer iterates. Two
// implementations: walk::Corpus (corpus.hpp) is the RAM-resident corpus
// itself, and SpooledCorpus (corpus_spool.hpp) serves walks straight out
// of mmap'd disk segments; walk::with_corpus (corpus_spool.hpp) picks one
// for learn_embedding and for every dynamic refresh round.
// Both hold the layout of the one corpus driver (CorpusDriver in
// walker.hpp), and the trainer's chunk geometry depends only on
// walk_count(), so a fixed-seed run produces the same epoch_loss
// trajectory whichever implementation backs it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "v2v/graph/graph.hpp"

namespace v2v::walk {

class CorpusReader {
 public:
  virtual ~CorpusReader() = default;

  [[nodiscard]] virtual std::size_t walk_count() const noexcept = 0;
  [[nodiscard]] virtual std::size_t token_count() const noexcept = 0;

  /// Tokens of walk `i` (i < walk_count()); the span stays valid for the
  /// reader's lifetime.
  [[nodiscard]] virtual std::span<const graph::VertexId> walk(
      std::size_t i) const noexcept = 0;

  /// Largest token id present (0 when the corpus has no tokens — check
  /// token_count() to tell the two apart). The trainer validates vocab
  /// bounds against this instead of rescanning every token.
  [[nodiscard]] virtual graph::VertexId max_token() const noexcept = 0;

  /// Occurrence count per vertex id in [0, vocab); ids >= vocab ignored.
  [[nodiscard]] virtual std::vector<std::uint64_t> vertex_frequencies(
      std::size_t vocab) const = 0;

  /// Locality hint: a worker is about to iterate walks [begin, end) in
  /// order. Disk-backed readers use it to madvise/prefetch the byte range;
  /// the in-RAM corpus ignores it.
  virtual void prefetch(std::size_t /*begin*/, std::size_t /*end*/) const {}
};

}  // namespace v2v::walk
