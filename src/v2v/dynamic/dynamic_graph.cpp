#include "v2v/dynamic/dynamic_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "v2v/common/check.hpp"

namespace v2v::dynamic {

namespace {

constexpr std::uint32_t kMaxRecords = 0xffffffffu;

}  // namespace

DynamicGraph::~DynamicGraph() = default;

DynamicGraph::DynamicGraph(DynamicGraph&& other) noexcept {
  LockGuard lock(other.mutex_);
  directed_ = other.directed_;
  records_ = std::move(other.records_);
  live_edges_ = other.live_edges_;
  vertex_count_ = other.vertex_count_;
  by_pair_ = std::move(other.by_pair_);
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

void DynamicGraph::mark_dirty(graph::VertexId u, graph::VertexId v) {
  if (dirty_.size() < vertex_count_) dirty_.resize(vertex_count_, false);
  for (const graph::VertexId d : {u, v}) {
    if (!dirty_[d]) {
      dirty_[d] = true;
      ++dirty_count_;
    }
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
  by_pair_[pair_key(u, v)].push_back(id);
  vertex_count_ = std::max(vertex_count_,
                           static_cast<std::size_t>(std::max(u, v)) + 1);
  ++live_edges_;
  mark_dirty(u, v);
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
  --live_edges_;
  mark_dirty(rec.u, rec.v);
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

std::size_t DynamicGraph::drain_dirty() {
  LockGuard lock(mutex_);
  std::fill(dirty_.begin(), dirty_.end(), false);
  return std::exchange(dirty_count_, 0);
}

graph::Graph DynamicGraph::compact() {
  LockGuard lock(mutex_);
  // Prune tombstones: the surviving records in insertion order ARE the
  // canonical edge list the CSR is built from.
  std::erase_if(records_, [](const Record& rec) { return !rec.alive; });
  by_pair_.clear();
  graph::GraphBuilder builder(directed_);
  builder.reserve_vertices(vertex_count_);
  for (std::uint32_t id = 0; id < records_.size(); ++id) {
    const Record& rec = records_[id];
    by_pair_[pair_key(rec.u, rec.v)].push_back(id);
    builder.add_edge(rec.u, rec.v, rec.weight, rec.timestamp);
  }
  return builder.build();
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
