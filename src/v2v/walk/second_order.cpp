#include "v2v/walk/second_order.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "v2v/walk/walker.hpp"


namespace v2v::walk {

Node2VecWalker::Node2VecWalker(const graph::Graph& g, const Node2VecConfig& config)
    : graph_(g), config_(config) {
  if (config_.walk_length == 0) {
    throw std::invalid_argument("node2vec: walk_length must be >= 1");
  }
  if (config_.p <= 0.0 || config_.q <= 0.0) {
    throw std::invalid_argument("node2vec: p and q must be positive");
  }
  sorted_neighbors_.resize(g.vertex_count());
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    const auto nbrs = g.neighbors(v);
    sorted_neighbors_[v].assign(nbrs.begin(), nbrs.end());
    std::sort(sorted_neighbors_[v].begin(), sorted_neighbors_[v].end());
  }
  max_weight_ = std::max({1.0, 1.0 / config_.p, 1.0 / config_.q});
}

bool Node2VecWalker::adjacent(graph::VertexId u, graph::VertexId v) const noexcept {
  const auto& nbrs = sorted_neighbors_[u];
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

void Node2VecWalker::walk_from(graph::VertexId start, Rng& rng,
                               std::vector<graph::VertexId>& out) const {
  out.clear();
  out.push_back(start);

  // First step is uniform (no previous vertex yet).
  auto first_nbrs = graph_.neighbors(start);
  if (first_nbrs.empty() || config_.walk_length == 1) return;
  graph::VertexId prev = start;
  graph::VertexId current = first_nbrs[rng.next_below(first_nbrs.size())];
  out.push_back(current);

  while (out.size() < config_.walk_length) {
    const auto nbrs = graph_.neighbors(current);
    if (nbrs.empty()) break;
    // Rejection sampling: draw a uniform candidate, accept with
    // probability weight(candidate) / max_weight.
    graph::VertexId next = 0;
    for (;;) {
      const graph::VertexId candidate = nbrs[rng.next_below(nbrs.size())];
      double weight;
      if (candidate == prev) {
        weight = 1.0 / config_.p;
      } else if (adjacent(prev, candidate)) {
        weight = 1.0;
      } else {
        weight = 1.0 / config_.q;
      }
      if (rng.next_double() * max_weight_ <= weight) {
        next = candidate;
        break;
      }
    }
    prev = current;
    current = next;
    out.push_back(current);
  }
}

Corpus generate_corpus_node2vec(const graph::Graph& g, const Node2VecConfig& config,
                                std::uint64_t seed) {
  const Node2VecWalker walker(g, config);
  WalkConfig layout;
  layout.walks_per_vertex = config.walks_per_vertex;
  layout.walk_length = config.walk_length;
  layout.threads = config.threads;
  const CorpusDriver driver(g.vertex_count(), layout, seed);
  return driver.collect(std::bind_front(&Node2VecWalker::walk_from, &walker));
}

}  // namespace v2v::walk
