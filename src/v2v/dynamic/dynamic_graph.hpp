// Edge-list graph for streaming workloads.
//
// DynamicGraph is an insertion-ordered list of edge records; removal
// tombstones the first surviving record between two endpoints, found
// through a by-pair index. compact() prunes the tombstones and returns
// the CSR (graph::Graph) of the surviving records, built by replaying
// them through GraphBuilder in insertion order — so it is *bit-identical*
// to a GraphBuilder run over live_edges() (tested in tests/dynamic/).
// The graph keeps no CSR of its own: a refresh round walks the one
// compact() hands it and drops it with the corpus.
//
// Every mutation marks both endpoints dirty; a refresh round drains the
// dirty set only to count it (RefreshStats::dirty_vertices) — every
// round walks the whole compacted graph. All public methods are
// thread-safe (internal v2v::Mutex, rank kDynamicGraph).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "v2v/common/sync.hpp"
#include "v2v/graph/graph.hpp"

namespace v2v::dynamic {

/// One streaming mutation. Removal matches by endpoints only (first
/// surviving edge between u and v, either orientation when undirected);
/// weight/timestamp are ignored for removals.
struct EdgeDelta {
  enum class Op : std::uint8_t { kInsert, kRemove };
  Op op = Op::kInsert;
  graph::VertexId u = 0;
  graph::VertexId v = 0;
  double weight = 1.0;
  double timestamp = graph::kNoTimestamp;

  friend bool operator==(const EdgeDelta&, const EdgeDelta&) = default;
};

/// A surviving logical edge, in canonical (insertion) order.
struct LiveEdge {
  graph::VertexId u = 0;
  graph::VertexId v = 0;
  double weight = 1.0;
  double timestamp = graph::kNoTimestamp;
};

class DynamicGraph {
 public:
  explicit DynamicGraph(bool directed = false) : directed_(directed) {}

  // Movable (so it can be returned from factories and owned by value);
  // assignment would need two same-rank locks, so it stays deleted.
  DynamicGraph(DynamicGraph&&) noexcept;
  DynamicGraph& operator=(DynamicGraph&&) = delete;
  DynamicGraph(const DynamicGraph&) = delete;
  DynamicGraph& operator=(const DynamicGraph&) = delete;
  ~DynamicGraph();

  [[nodiscard]] bool directed() const noexcept { return directed_; }

  /// Ensures at least `n` vertices exist (isolated vertices allowed).
  void reserve_vertices(std::size_t n);

  /// Inserts an edge (parallel edges and self-loops follow GraphBuilder
  /// semantics). Throws std::invalid_argument on negative weight.
  void add_edge(graph::VertexId u, graph::VertexId v, double weight = 1.0,
                double timestamp = graph::kNoTimestamp);

  /// Removes the first surviving edge between u and v (either orientation
  /// when undirected). Returns false when no such edge exists.
  bool remove_edge(graph::VertexId u, graph::VertexId v);

  /// Applies one delta; returns false for a remove that matched nothing.
  bool apply(const EdgeDelta& delta);

  /// Applies a batch; returns how many deltas took effect.
  std::size_t apply(std::span<const EdgeDelta> deltas);

  [[nodiscard]] std::size_t vertex_count() const;
  /// Surviving logical edges (arcs for directed, edges for undirected).
  [[nodiscard]] std::size_t edge_count() const;

  /// Clears the dirty set and returns how many distinct vertices it held:
  /// those whose neighborhood changed since the last drain.
  [[nodiscard]] std::size_t drain_dirty();

  /// Prunes tombstoned records and returns the CSR of the survivors,
  /// built through GraphBuilder in insertion order: bit-identical to a
  /// GraphBuilder replay of live_edges(). Does NOT clear the dirty set
  /// (refresh owns that).
  [[nodiscard]] graph::Graph compact();

  /// Surviving edges in canonical insertion order. Feeding these back
  /// through add_edge reproduces this graph's compacted CSR exactly.
  [[nodiscard]] std::vector<LiveEdge> live_edges() const;

 private:
  struct Record {
    graph::VertexId u, v;
    double weight;
    double timestamp;
    bool alive;
  };

  [[nodiscard]] std::uint64_t pair_key(graph::VertexId u,
                                       graph::VertexId v) const noexcept;
  void mark_dirty(graph::VertexId u, graph::VertexId v) V2V_REQUIRES(mutex_);

  mutable Mutex mutex_{"dynamic::DynamicGraph", lock_rank::kDynamicGraph};
  bool directed_ = false;

  /// Canonical edge list, insertion order, tombstoned by `alive`.
  std::vector<Record> records_ V2V_GUARDED_BY(mutex_);
  std::size_t live_edges_ V2V_GUARDED_BY(mutex_) = 0;
  std::size_t vertex_count_ V2V_GUARDED_BY(mutex_) = 0;

  /// (u,v) pair key -> surviving record ids, for O(1)-ish removal.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_pair_
      V2V_GUARDED_BY(mutex_);
  std::vector<bool> dirty_ V2V_GUARDED_BY(mutex_);
  std::size_t dirty_count_ V2V_GUARDED_BY(mutex_) = 0;
};

}  // namespace v2v::dynamic
