// Delta-overlay graph for streaming workloads.
//
// DynamicGraph layers edge insertions/deletions over an immutable CSR
// base (graph::Graph). The canonical state is an insertion-ordered edge
// record list with tombstones; a prefix of it is compiled into the CSR
// base, the suffix lives in per-vertex overlay indexes so merged
// adjacency reads stay O(degree). Compaction replays the surviving
// records — in their original insertion order — through GraphBuilder,
// which makes the compacted CSR *bit-identical* to building a fresh
// graph from the merged edge set (tested in tests/dynamic/).
//
// Every mutation marks both endpoints dirty; a refresh round drains the
// dirty set only to count it (RefreshStats::dirty_vertices) — every
// round walks the whole compacted graph. All public
// methods are thread-safe (internal v2v::Mutex, rank kDynamicGraph);
// the one exception is base(), which returns a reference that is only
// stable while no thread compacts — see its comment.
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

struct DynamicGraphConfig {
  /// maybe_compact() compacts once the overlay holds at least this many
  /// mutations...
  std::size_t compact_min_delta = 1024;
  /// ...or once mutations exceed this fraction of the base edge count.
  double compact_ratio = 0.25;
};

class DynamicGraph {
 public:
  explicit DynamicGraph(bool directed = false, DynamicGraphConfig config = {});

  // Movable (so it can be returned from factories and owned by value);
  // assignment would need two same-rank locks, so it stays deleted.
  DynamicGraph(DynamicGraph&&) noexcept;
  DynamicGraph& operator=(DynamicGraph&&) = delete;
  DynamicGraph(const DynamicGraph&) = delete;
  DynamicGraph& operator=(const DynamicGraph&) = delete;
  ~DynamicGraph();

  [[nodiscard]] bool directed() const noexcept { return directed_; }
  [[nodiscard]] const DynamicGraphConfig& config() const noexcept { return config_; }

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
  /// Mutations (inserts + effective removes) accumulated since the last
  /// compaction.
  [[nodiscard]] std::size_t delta_arcs() const;

  /// Merged adjacency of v: base arcs (minus removed ones, in CSR order)
  /// followed by overlay arcs in insertion order. O(degree + removed(v)).
  void merged_arcs(graph::VertexId v, std::vector<graph::Arc>& out) const;
  [[nodiscard]] std::size_t merged_degree(graph::VertexId v) const;
  [[nodiscard]] bool has_edge(graph::VertexId u, graph::VertexId v) const;

  /// Distinct vertices whose neighborhood changed since the last drain.
  [[nodiscard]] std::size_t dirty_count() const;
  /// Returns dirty_count() and clears the dirty set.
  [[nodiscard]] std::size_t drain_dirty();

  /// The CSR as of the last compaction. The reference is stable only
  /// while no thread calls compact()/maybe_compact(); the refresh driver
  /// guarantees this by quiescing mutators before walking.
  [[nodiscard]] const graph::Graph& base() const noexcept { return base_; }

  [[nodiscard]] bool compaction_due() const;
  /// Compacts when the configured threshold is reached; returns whether
  /// a compaction ran.
  bool maybe_compact();
  /// Rebuilds the CSR base from the surviving records and clears the
  /// overlay. Does NOT clear the dirty set (refresh owns that).
  void compact();

  /// From-scratch CSR over the surviving records, without mutating the
  /// overlay. compact() produces exactly this graph (the bit-identity
  /// contract).
  [[nodiscard]] graph::Graph build_fresh_csr() const;

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
  void index_record(std::uint32_t id) V2V_REQUIRES(mutex_);
  void compact_locked() V2V_REQUIRES(mutex_);
  [[nodiscard]] bool compaction_due_locked() const V2V_REQUIRES(mutex_);
  [[nodiscard]] graph::Graph build_locked() const V2V_REQUIRES(mutex_);

  mutable Mutex mutex_{"dynamic::DynamicGraph", lock_rank::kDynamicGraph};
  bool directed_ = false;
  DynamicGraphConfig config_;

  /// Canonical edge list, insertion order, tombstoned by `alive`.
  std::vector<Record> records_ V2V_GUARDED_BY(mutex_);
  /// records_[0..base_records_) are compiled into base_.
  std::size_t base_records_ V2V_GUARDED_BY(mutex_) = 0;
  std::size_t live_edges_ V2V_GUARDED_BY(mutex_) = 0;
  std::size_t mutations_since_compact_ V2V_GUARDED_BY(mutex_) = 0;
  std::size_t vertex_count_ V2V_GUARDED_BY(mutex_) = 0;

  // base_ is written only by compact_locked() under mutex_ and read
  // unlocked via base(); see base()'s stability contract.
  graph::Graph base_;

  /// (u,v) pair key -> surviving record ids, for O(1)-ish removal.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_pair_
      V2V_GUARDED_BY(mutex_);
  /// vertex -> overlay record ids (>= base_records_); undirected records
  /// appear under both endpoints (twice for self-loops, matching the two
  /// CSR arcs they compile to).
  std::unordered_map<graph::VertexId, std::vector<std::uint32_t>> overlay_
      V2V_GUARDED_BY(mutex_);
  /// vertex -> targets of base arcs that were removed (multiset).
  std::unordered_map<graph::VertexId, std::vector<graph::VertexId>> removed_base_
      V2V_GUARDED_BY(mutex_);
  std::vector<bool> dirty_ V2V_GUARDED_BY(mutex_);
  std::size_t dirty_count_ V2V_GUARDED_BY(mutex_) = 0;
};

}  // namespace v2v::dynamic
