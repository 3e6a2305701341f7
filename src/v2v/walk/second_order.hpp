// Second-order (node2vec-style) biased random walks — Grover & Leskovec
// 2016, the paper's related work [10]. The next step from v (having
// arrived from t) weights each candidate x by
//     1/p  if x == t           (return)
//     1    if x is adjacent to t (BFS-ish / stay local)
//     1/q  otherwise           (DFS-ish / explore outward)
// p = q = 1 degenerates to the first-order uniform walk. Implemented with
// rejection sampling against max(1/p, 1, 1/q), the standard trick that
// avoids per-(edge,edge) alias tables, with sorted adjacency for O(log d)
// neighbor membership tests.
#pragma once

#include <cstdint>
#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/graph/graph.hpp"
#include "v2v/walk/corpus.hpp"

namespace v2v::walk {

struct Node2VecConfig {
  std::size_t walks_per_vertex = 10;
  std::size_t walk_length = 80;
  double p = 1.0;  ///< return parameter (larger = less backtracking)
  double q = 1.0;  ///< in-out parameter (smaller = more exploration)
  std::size_t threads = 1;
};

class Node2VecWalker {
 public:
  Node2VecWalker(const graph::Graph& g, const Node2VecConfig& config);
  /// The walker keeps a reference to the graph; binding a temporary would
  /// dangle, so it is rejected at compile time.
  Node2VecWalker(graph::Graph&&, const Node2VecConfig&) = delete;

  /// Appends one second-order walk from `start` into `out`.
  void walk_from(graph::VertexId start, Rng& rng,
                 std::vector<graph::VertexId>& out) const;

  [[nodiscard]] const Node2VecConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] bool adjacent(graph::VertexId u, graph::VertexId v) const noexcept;

  const graph::Graph& graph_;
  Node2VecConfig config_;
  /// Sorted copy of each adjacency list for binary-search membership.
  std::vector<std::vector<graph::VertexId>> sorted_neighbors_;
  double max_weight_ = 1.0;
};

/// Runs node2vec walks from every vertex; deterministic per (graph,
/// config, seed) including under multithreading.
[[nodiscard]] Corpus generate_corpus_node2vec(const graph::Graph& g,
                                              const Node2VecConfig& config,
                                              std::uint64_t seed);

}  // namespace v2v::walk
