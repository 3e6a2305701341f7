#include "v2v/dynamic/incremental_walks.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "v2v/common/check.hpp"

namespace v2v::dynamic {

IncrementalWalkResult regenerate_corpus_incremental(
    const graph::Graph& g, const walk::WalkConfig& config, std::uint64_t seed,
    const walk::CorpusReader& old_corpus, const walk::WalkIndex& old_index,
    std::span<const graph::VertexId> dirty) {
  const std::size_t walks_per_vertex = config.walks_per_vertex;
  V2V_CHECK(walks_per_vertex > 0, "incremental walks: walks_per_vertex == 0");
  V2V_CHECK(old_corpus.walk_count() % walks_per_vertex == 0,
            "incremental walks: old corpus is not start-vertex blocked");
  const std::size_t old_n = old_corpus.walk_count() / walks_per_vertex;
  V2V_CHECK(old_index.walk_count() == old_corpus.walk_count(),
            "incremental walks: index does not match the old corpus");
  const std::size_t n = g.vertex_count();
  V2V_CHECK(n >= old_n, "incremental walks: graph lost vertices");

  // Mark affected start vertices: dirty ones, plus the owners of every
  // old walk that visited a dirty vertex. New vertices (>= old_n) have no
  // old walks and are always regenerated.
  std::vector<bool> affected(n, false);
  for (const graph::VertexId d : dirty) {
    if (d >= n) continue;
    affected[d] = true;
    if (d < old_index.vertex_count()) {
      for (const std::uint32_t walk_id : old_index.walks_visiting(d)) {
        affected[walk_id / walks_per_vertex] = true;
      }
    }
  }
  for (std::size_t v = old_n; v < n; ++v) affected[v] = true;

  // The walk driver lays the corpus out as generate_corpus does (same
  // split, same per-vertex streams, no telemetry), so the merged corpus
  // is token-for-token what a full regeneration would produce. The block
  // of walks_per_vertex walks is the unit of RNG determinism: an affected
  // start vertex re-walks all of it, any other splices it through.
  walk::WalkConfig layout = config;
  layout.metrics = nullptr;
  const walk::CorpusDriver driver(n, layout, seed);
  const walk::Walker walker(g, config);
  IncrementalWalkResult result;
  result.corpus = driver.collect(
      std::bind_front(&walk::Walker::walk_from, &walker),
      [&](graph::VertexId v, walk::Corpus& shard) {
        if (affected[v]) return false;
        for (std::size_t w = 0; w < walks_per_vertex; ++w) {
          shard.add_walk(old_corpus.walk(v * walks_per_vertex + w));
        }
        return true;
      });

  result.regenerated_starts =
      static_cast<std::size_t>(std::count(affected.begin(), affected.end(), true));
  result.reused_starts = n - result.regenerated_starts;
  // Invalidated = affected starts that HAD old walks: every new vertex is
  // affected and had none to discard.
  result.invalidated_walks =
      (result.regenerated_starts - (n - old_n)) * walks_per_vertex;
  return result;
}

}  // namespace v2v::dynamic
