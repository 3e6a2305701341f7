// Out-of-core corpus: the walks of (graph, walk config, seed), redrawn on
// demand instead of held in RAM.
//
// At the paper's budget (t = ℓ = 1000 walks per vertex) the corpus is
// ~4 TB of tokens per million vertices. A StreamedCorpus keeps none of
// them: it runs one counting pass on the corpus driver at construction
// (walk and token totals, the largest token, exact per-vertex
// frequencies, and generate_corpus's walk.* telemetry), then redraws any
// range of walks on demand. Walk i is start vertex i / t's walk number
// i % t, drawn from the same root.fork(v) stream as the RAM corpus, so
// it serves the RAM corpus's walks in the RAM order and a fixed-seed
// training run is bit-identical across the two (exact with 1 thread).
// Its heap is O(n): the frequencies and the walker (the counting pass
// briefly holds one frequency table per walk worker). Each trainer chunk
// that starts partway through a vertex's walks redraws the walks of that
// vertex before its first.
//
// with_corpus is the one place a caller picks between the two backings:
// learn_embedding and every dynamic::RefreshSession round hand it a
// training callback and get the corpus's totals back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "v2v/graph/graph.hpp"
#include "v2v/walk/corpus_reader.hpp"
#include "v2v/walk/walker.hpp"

namespace v2v::walk {

/// The corpus of (g, config, seed) behind CorpusReader, walked on demand.
/// Keeps references to `g` (through its walker): `g` must outlive it.
/// Neither copyable nor movable.
class StreamedCorpus final : public CorpusReader {
 public:
  /// Runs the counting pass on config.threads workers and records the
  /// walk telemetry into config.metrics, as generate_corpus does.
  StreamedCorpus(const graph::Graph& g, const WalkConfig& config, std::uint64_t seed);
  StreamedCorpus(graph::Graph&&, const WalkConfig&, std::uint64_t) = delete;
  StreamedCorpus(const StreamedCorpus&) = delete;
  StreamedCorpus& operator=(const StreamedCorpus&) = delete;

  [[nodiscard]] std::size_t walk_count() const noexcept override {
    return driver_.walk_count();
  }
  [[nodiscard]] std::size_t token_count() const noexcept override { return tokens_; }
  /// Redraws walks [begin, end) on the caller's thread.
  void for_each_walk(std::size_t begin, std::size_t end,
                     const WalkSink& sink) const override;
  [[nodiscard]] graph::VertexId max_token() const noexcept override {
    return max_token_;
  }
  [[nodiscard]] std::vector<std::uint64_t> vertex_frequencies(
      std::size_t vocab) const override;

 private:
  CorpusDriver driver_;  // before walker_: walk.seconds covers the alias build
  Walker walker_;
  CorpusDriver::WalkFn walk_from_;
  std::size_t tokens_ = 0;
  graph::VertexId max_token_ = 0;
  std::vector<std::uint64_t> freq_;  ///< one count per vertex
};

/// What with_corpus generated.
struct CorpusRun {
  std::size_t walks = 0;
  std::size_t tokens = 0;
  /// The RAM corpus's generation, or the streamed corpus's counting pass
  /// (its redraws run inside `use`); never `use` itself.
  double walk_seconds = 0.0;
};

/// Builds the corpus of (g, config, seed), hands it to `use` and drops
/// it: the generate_corpus result, or with config.streaming a
/// StreamedCorpus. Either way the reader serves the same walks in the
/// same order.
CorpusRun with_corpus(const graph::Graph& g, const WalkConfig& config,
                      std::uint64_t seed,
                      const std::function<void(const CorpusReader&)>& use);

}  // namespace v2v::walk
