#include "v2v/walk/walk_index.hpp"

#include <algorithm>
#include <limits>

#include "v2v/common/check.hpp"

namespace v2v::walk {

WalkIndex::WalkIndex(const CorpusReader& corpus, std::size_t vertex_count)
    : walk_count_(corpus.walk_count()) {
  V2V_CHECK(walk_count_ < std::numeric_limits<std::uint32_t>::max(),
            "WalkIndex: walk count exceeds 32-bit ids");
  constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();

  // Counting sort over (vertex, walk) incidences. The stamp array dedups
  // revisits within one walk: stamp[v] remembers the last walk that
  // counted v, so each walk contributes each vertex once.
  std::vector<std::uint64_t> counts(vertex_count + 1, 0);
  std::vector<std::uint32_t> stamp(vertex_count, kUnseen);
  for (std::size_t w = 0; w < walk_count_; ++w) {
    for (const graph::VertexId token : corpus.walk(w)) {
      V2V_BOUNDS(token, vertex_count);
      if (stamp[token] != static_cast<std::uint32_t>(w)) {
        stamp[token] = static_cast<std::uint32_t>(w);
        ++counts[token + 1];
      }
    }
  }
  offsets_.assign(vertex_count + 1, 0);
  for (std::size_t v = 0; v < vertex_count; ++v) {
    offsets_[v + 1] = offsets_[v] + counts[v + 1];
  }
  walk_ids_.resize(offsets_[vertex_count]);

  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  std::fill(stamp.begin(), stamp.end(), kUnseen);
  for (std::size_t w = 0; w < walk_count_; ++w) {
    for (const graph::VertexId token : corpus.walk(w)) {
      if (stamp[token] != static_cast<std::uint32_t>(w)) {
        stamp[token] = static_cast<std::uint32_t>(w);
        walk_ids_[cursor[token]++] = static_cast<std::uint32_t>(w);
      }
    }
  }
}

}  // namespace v2v::walk
