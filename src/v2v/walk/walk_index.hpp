// Per-vertex walk provenance: which walks visited which vertex.
//
// The dynamic-refresh pipeline uses this inverted index to invalidate
// exactly the walks whose trajectories touched a mutated ("dirty")
// vertex: a walk that never stepped on a dirty vertex sees the same
// neighbor sets and consumes the same RNG draws on the new graph, so it
// replays bit-identically and can be reused as-is.
//
// Stored as a CSR over vertices (offsets + walk ids); each walk is
// listed at most once per vertex regardless of how often it revisited
// it. Build cost is O(total tokens), memory O(distinct visits).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "v2v/graph/graph.hpp"
#include "v2v/walk/corpus.hpp"
#include "v2v/walk/corpus_reader.hpp"

namespace v2v::walk {

class WalkIndex {
 public:
  WalkIndex() = default;

  /// Indexes every walk of `corpus`. `vertex_count` bounds the vertex id
  /// space (tokens are vertex ids; all are < vertex_count by contract).
  /// Each walk is streamed once, so a disk-spooled corpus is indexed
  /// without materializing it.
  WalkIndex(const CorpusReader& corpus, std::size_t vertex_count);

  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t walk_count() const noexcept { return walk_count_; }
  /// Total (vertex, walk) incidences — the index's memory footprint.
  [[nodiscard]] std::size_t entry_count() const noexcept { return walk_ids_.size(); }

  /// Ids of the walks that visited v, ascending. Empty for unvisited v.
  [[nodiscard]] std::span<const std::uint32_t> walks_visiting(
      graph::VertexId v) const noexcept {
    V2V_BOUNDS(v, vertex_count());
    return {walk_ids_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

 private:
  std::vector<std::uint64_t> offsets_{0};
  std::vector<std::uint32_t> walk_ids_;
  std::size_t walk_count_ = 0;
};

}  // namespace v2v::walk
