// Read-only corpus interface that the trainer iterates. Two
// implementations: walk::Corpus (corpus.hpp) is the RAM-resident corpus
// itself, and walk::StreamedCorpus (corpus_stream.hpp) redraws any range
// of walks on demand from the graph; walk::with_corpus (corpus_stream.hpp)
// picks one for learn_embedding and for every dynamic refresh round.
// Both hold the layout of the one corpus driver (CorpusDriver in
// walker.hpp), and the trainer's chunk geometry depends only on
// walk_count(), so a fixed-seed run produces the same epoch_loss
// trajectory whichever implementation backs it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "v2v/graph/graph.hpp"

namespace v2v::walk {

/// Takes one walk; the span is valid only during the call.
using WalkSink = std::function<void(std::span<const graph::VertexId>)>;

class CorpusReader {
 public:
  virtual ~CorpusReader() = default;

  [[nodiscard]] virtual std::size_t walk_count() const noexcept = 0;
  [[nodiscard]] virtual std::size_t token_count() const noexcept = 0;

  /// Hands walks [begin, end) to `sink` in order (begin <= end <=
  /// walk_count()). Const and safe to call concurrently; the span `sink`
  /// receives is valid only during that call.
  virtual void for_each_walk(std::size_t begin, std::size_t end,
                             const WalkSink& sink) const = 0;

  /// Largest token id present (0 when the corpus has no tokens — check
  /// token_count() to tell the two apart). The trainer validates vocab
  /// bounds against this instead of rescanning every token.
  [[nodiscard]] virtual graph::VertexId max_token() const noexcept = 0;

  /// Occurrence count per vertex id in [0, vocab); ids >= vocab ignored.
  [[nodiscard]] virtual std::vector<std::uint64_t> vertex_frequencies(
      std::size_t vocab) const = 0;
};

}  // namespace v2v::walk
