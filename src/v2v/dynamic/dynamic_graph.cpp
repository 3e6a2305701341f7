#include "v2v/dynamic/dynamic_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "v2v/common/check.hpp"

namespace v2v::dynamic {

namespace {

constexpr std::uint32_t kMaxRecords = 0xffffffffu;

}  // namespace

DynamicGraph::DynamicGraph(bool directed, DynamicGraphConfig config)
    : directed_(directed), config_(config) {
  if (config_.compact_ratio <= 0.0) {
    throw std::invalid_argument("DynamicGraph: compact_ratio must be > 0");
  }
}

DynamicGraph::~DynamicGraph() = default;

DynamicGraph::DynamicGraph(DynamicGraph&& other) noexcept {
  LockGuard lock(other.mutex_);
  directed_ = other.directed_;
  config_ = other.config_;
  records_ = std::move(other.records_);
  base_records_ = other.base_records_;
  live_edges_ = other.live_edges_;
  mutations_since_compact_ = other.mutations_since_compact_;
  vertex_count_ = other.vertex_count_;
  base_ = std::move(other.base_);
  by_pair_ = std::move(other.by_pair_);
  overlay_ = std::move(other.overlay_);
  removed_base_ = std::move(other.removed_base_);
  dirty_ = std::move(other.dirty_);
  dirty_count_ = other.dirty_count_;
}

std::uint64_t DynamicGraph::pair_key(graph::VertexId u,
                                     graph::VertexId v) const noexcept {
  if (!directed_ && u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

void DynamicGraph::reserve_vertices(std::size_t n) {
  LockGuard lock(mutex_);
  vertex_count_ = std::max(vertex_count_, n);
}

void DynamicGraph::index_record(std::uint32_t id) {
  const Record& rec = records_[id];
  by_pair_[pair_key(rec.u, rec.v)].push_back(id);
  if (id >= base_records_) {
    overlay_[rec.u].push_back(id);
    // Undirected records compile to two arcs; a self-loop contributes
    // both of them to the same adjacency, so index it twice.
    if (!directed_) overlay_[rec.v].push_back(id);
  }
}

void DynamicGraph::add_edge(graph::VertexId u, graph::VertexId v, double weight,
                            double timestamp) {
  if (weight < 0.0) {
    throw std::invalid_argument("DynamicGraph::add_edge: negative weight");
  }
  LockGuard lock(mutex_);
  V2V_CHECK(records_.size() < kMaxRecords,
            "DynamicGraph: edge record count exceeds 2^32");
  const auto id = static_cast<std::uint32_t>(records_.size());
  records_.push_back(Record{u, v, weight, timestamp, true});
  index_record(id);
  vertex_count_ = std::max(vertex_count_,
                           static_cast<std::size_t>(std::max(u, v)) + 1);
  if (dirty_.size() < vertex_count_) dirty_.resize(vertex_count_, false);
  ++live_edges_;
  ++mutations_since_compact_;
  for (const graph::VertexId d : {u, v}) {
    if (!dirty_[d]) {
      dirty_[d] = true;
      ++dirty_count_;
    }
  }
}

bool DynamicGraph::remove_edge(graph::VertexId u, graph::VertexId v) {
  LockGuard lock(mutex_);
  const auto it = by_pair_.find(pair_key(u, v));
  if (it == by_pair_.end()) return false;
  auto& ids = it->second;
  // Record order == first matching arc in CSR order (the counting-sort
  // scatter preserves per-source insertion order), so "first surviving
  // record" is also the deterministic choice a CSR scan would make.
  auto pos = std::find_if(ids.begin(), ids.end(), [&](std::uint32_t id) {
    return records_[id].alive;
  });
  if (pos == ids.end()) return false;
  const std::uint32_t id = *pos;
  ids.erase(pos);
  if (ids.empty()) by_pair_.erase(it);
  Record& rec = records_[id];
  rec.alive = false;
  if (id < base_records_) {
    removed_base_[rec.u].push_back(rec.v);
    if (!directed_) removed_base_[rec.v].push_back(rec.u);
  }
  --live_edges_;
  ++mutations_since_compact_;
  if (dirty_.size() < vertex_count_) dirty_.resize(vertex_count_, false);
  for (const graph::VertexId d : {rec.u, rec.v}) {
    if (!dirty_[d]) {
      dirty_[d] = true;
      ++dirty_count_;
    }
  }
  return true;
}

bool DynamicGraph::apply(const EdgeDelta& delta) {
  if (delta.op == EdgeDelta::Op::kInsert) {
    add_edge(delta.u, delta.v, delta.weight, delta.timestamp);
    return true;
  }
  return remove_edge(delta.u, delta.v);
}

std::size_t DynamicGraph::apply(std::span<const EdgeDelta> deltas) {
  std::size_t applied = 0;
  for (const EdgeDelta& delta : deltas) {
    if (apply(delta)) ++applied;
  }
  return applied;
}

std::size_t DynamicGraph::vertex_count() const {
  LockGuard lock(mutex_);
  return vertex_count_;
}

std::size_t DynamicGraph::edge_count() const {
  LockGuard lock(mutex_);
  return live_edges_;
}

std::size_t DynamicGraph::delta_arcs() const {
  LockGuard lock(mutex_);
  return mutations_since_compact_;
}

void DynamicGraph::merged_arcs(graph::VertexId v,
                               std::vector<graph::Arc>& out) const {
  out.clear();
  LockGuard lock(mutex_);
  if (v >= vertex_count_) return;
  if (v < base_.vertex_count()) {
    // Base arcs minus removed ones, preserving CSR order. `removed` is a
    // scratch multiset of targets; each match consumes one entry so
    // parallel edges are removed one at a time.
    std::vector<graph::VertexId> removed;
    if (const auto it = removed_base_.find(v); it != removed_base_.end()) {
      removed = it->second;
    }
    const auto targets = base_.neighbors(v);
    const auto weights = base_.arc_weights(v);
    const auto timestamps = base_.arc_timestamps(v);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (!removed.empty()) {
        const auto hit = std::find(removed.begin(), removed.end(), targets[i]);
        if (hit != removed.end()) {
          removed.erase(hit);
          continue;
        }
      }
      out.push_back(graph::Arc{targets[i],
                               weights.empty() ? 1.0 : weights[i],
                               timestamps.empty() ? graph::kNoTimestamp
                                                  : timestamps[i]});
    }
  }
  if (const auto it = overlay_.find(v); it != overlay_.end()) {
    for (const std::uint32_t id : it->second) {
      const Record& rec = records_[id];
      if (!rec.alive) continue;
      const graph::VertexId target = rec.u == v ? rec.v : rec.u;
      out.push_back(graph::Arc{target, rec.weight, rec.timestamp});
    }
  }
}

std::size_t DynamicGraph::merged_degree(graph::VertexId v) const {
  LockGuard lock(mutex_);
  if (v >= vertex_count_) return 0;
  std::size_t degree = 0;
  if (v < base_.vertex_count()) {
    degree = base_.out_degree(v);
    if (const auto it = removed_base_.find(v); it != removed_base_.end()) {
      degree -= it->second.size();
    }
  }
  if (const auto it = overlay_.find(v); it != overlay_.end()) {
    for (const std::uint32_t id : it->second) {
      if (records_[id].alive) ++degree;
    }
  }
  return degree;
}

bool DynamicGraph::has_edge(graph::VertexId u, graph::VertexId v) const {
  LockGuard lock(mutex_);
  const auto it = by_pair_.find(pair_key(u, v));
  if (it == by_pair_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](std::uint32_t id) { return records_[id].alive; });
}

std::size_t DynamicGraph::dirty_count() const {
  LockGuard lock(mutex_);
  return dirty_count_;
}

std::size_t DynamicGraph::drain_dirty() {
  LockGuard lock(mutex_);
  std::fill(dirty_.begin(), dirty_.end(), false);
  return std::exchange(dirty_count_, 0);
}

bool DynamicGraph::compaction_due_locked() const {
  if (mutations_since_compact_ == 0) return false;
  if (mutations_since_compact_ >= config_.compact_min_delta) return true;
  const auto base_edges = static_cast<double>(base_.edge_count());
  return static_cast<double>(mutations_since_compact_) >
         config_.compact_ratio * base_edges;
}

bool DynamicGraph::compaction_due() const {
  LockGuard lock(mutex_);
  return compaction_due_locked();
}

bool DynamicGraph::maybe_compact() {
  LockGuard lock(mutex_);
  if (!compaction_due_locked()) return false;
  compact_locked();
  return true;
}

void DynamicGraph::compact() {
  LockGuard lock(mutex_);
  compact_locked();
}

graph::Graph DynamicGraph::build_locked() const {
  graph::GraphBuilder builder(directed_);
  builder.reserve_vertices(vertex_count_);
  for (const Record& rec : records_) {
    if (rec.alive) builder.add_edge(rec.u, rec.v, rec.weight, rec.timestamp);
  }
  return builder.build();
}

void DynamicGraph::compact_locked() {
  base_ = build_locked();
  // Prune tombstones: the surviving records in insertion order ARE the
  // canonical edge list of the new base.
  std::vector<Record> survivors;
  survivors.reserve(live_edges_);
  for (const Record& rec : records_) {
    if (rec.alive) survivors.push_back(rec);
  }
  records_ = std::move(survivors);
  base_records_ = records_.size();
  overlay_.clear();
  removed_base_.clear();
  by_pair_.clear();
  for (std::uint32_t id = 0; id < records_.size(); ++id) index_record(id);
  mutations_since_compact_ = 0;
}

graph::Graph DynamicGraph::build_fresh_csr() const {
  LockGuard lock(mutex_);
  return build_locked();
}

std::vector<LiveEdge> DynamicGraph::live_edges() const {
  LockGuard lock(mutex_);
  std::vector<LiveEdge> out;
  out.reserve(live_edges_);
  for (const Record& rec : records_) {
    if (rec.alive) out.push_back(LiveEdge{rec.u, rec.v, rec.weight, rec.timestamp});
  }
  return out;
}

}  // namespace v2v::dynamic
