// Incremental walk regeneration for the dynamic-refresh pipeline.
//
// Given the new graph, the old corpus, and the set of dirty vertices, we
// regenerate only the walk blocks that could differ and splice the rest
// through unchanged. A start vertex is *affected* when
//   - it is dirty (its own neighborhood changed),
//   - any of its old walks visited a dirty vertex (the trajectory could
//     diverge at that step), or
//   - it is a brand-new vertex (no old walks exist).
// Every other start vertex's walks replay bit-identically: each step
// leaves a clean vertex whose neighbor set (and alias table) is
// unchanged, so the per-vertex RNG stream consumes the same draws. The
// regeneration runs on the same walk driver as generate_corpus
// (walk::CorpusDriver: same split, same per-vertex streams, same
// chunk-order merge) and only splices the unaffected blocks in, so the
// induction makes the output *exactly* equal to
// walk::generate_corpus(new_graph, config, seed) — a contract the tests
// in tests/dynamic/ enforce token-for-token.
#pragma once

#include <cstdint>
#include <span>

#include "v2v/graph/graph.hpp"
#include "v2v/walk/corpus.hpp"
#include "v2v/walk/corpus_reader.hpp"
#include "v2v/walk/walk_index.hpp"
#include "v2v/walk/walker.hpp"

namespace v2v::dynamic {

struct IncrementalWalkResult {
  walk::Corpus corpus;
  std::size_t regenerated_starts = 0;  ///< start vertices walked fresh
  std::size_t reused_starts = 0;       ///< start vertices spliced from the old corpus
  std::size_t invalidated_walks = 0;   ///< old walks discarded (regenerated starts x walks_per_vertex, new starts excluded)
};

/// Regenerates the corpus for `g` (the post-mutation graph), reusing the
/// walk blocks of `old_corpus` (generated on the pre-mutation graph with
/// the same `config` and `seed`) whose trajectories avoided every vertex
/// in `dirty`. `old_index` must index `old_corpus`; `old_corpus` must
/// hold exactly walks_per_vertex walks per old vertex in start-vertex
/// order (the generate_corpus layout). The old corpus is read through the
/// CorpusReader interface, so it can be the RAM walk::Corpus or a disk
/// spool (walk::SpooledCorpus) — splicing reads each reused walk once.
[[nodiscard]] IncrementalWalkResult regenerate_corpus_incremental(
    const graph::Graph& g, const walk::WalkConfig& config, std::uint64_t seed,
    const walk::CorpusReader& old_corpus, const walk::WalkIndex& old_index,
    std::span<const graph::VertexId> dirty);

}  // namespace v2v::dynamic
