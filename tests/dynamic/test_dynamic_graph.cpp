// DynamicGraph contracts: the CSR compact() returns is *byte-identical*
// to a GraphBuilder replay of live_edges() (the determinism contract the
// refresh driver's corpus builds on), removal takes the earliest
// surviving record, and the dirty set tracks exactly the endpoints of
// applied mutations.
#include "v2v/dynamic/dynamic_graph.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/graph/graph.hpp"

namespace v2v::dynamic {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

/// Byte-level CSR equality: spans of offsets/targets plus the per-vertex
/// weight/timestamp arrays must match exactly, not just semantically.
void expect_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  ASSERT_EQ(a.arc_count(), b.arc_count());
  EXPECT_EQ(a.directed(), b.directed());
  EXPECT_EQ(a.has_edge_weights(), b.has_edge_weights());
  EXPECT_EQ(a.has_timestamps(), b.has_timestamps());
  const auto ao = a.offsets(), bo = b.offsets();
  ASSERT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()));
  const auto at = a.targets(), bt = b.targets();
  ASSERT_TRUE(std::equal(at.begin(), at.end(), bt.begin(), bt.end()));
  for (VertexId v = 0; v < a.vertex_count(); ++v) {
    const auto aw = a.arc_weights(v), bw = b.arc_weights(v);
    ASSERT_TRUE(std::equal(aw.begin(), aw.end(), bw.begin(), bw.end()));
    const auto ats = a.arc_timestamps(v), bts = b.arc_timestamps(v);
    ASSERT_TRUE(std::equal(ats.begin(), ats.end(), bts.begin(), bts.end()));
  }
}

/// GraphBuilder replay of g.live_edges(): the CSR g.compact() must equal.
Graph replay_live_edges(const DynamicGraph& g) {
  GraphBuilder builder(g.directed());
  builder.reserve_vertices(g.vertex_count());
  for (const auto& e : g.live_edges()) {
    builder.add_edge(e.u, e.v, e.weight, e.timestamp);
  }
  return builder.build();
}

/// Applies a deterministic random mutation mix and returns the graph.
DynamicGraph churn(bool directed, std::uint64_t seed, std::size_t ops) {
  DynamicGraph g(directed);
  g.reserve_vertices(24);
  Rng rng(seed);
  for (std::size_t i = 0; i < ops; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(24));
    const auto v = static_cast<VertexId>(rng.next_below(24));
    if (rng.next_below(4) == 0) {
      (void)g.remove_edge(u, v);
    } else {
      const double w = 1.0 + static_cast<double>(rng.next_below(3));
      g.add_edge(u, v, w);
    }
  }
  return g;
}

TEST(DynamicGraph, CompactionIsByteIdenticalToFreshBuild) {
  for (const bool directed : {false, true}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      auto g = churn(directed, seed, 400);
      const Graph fresh = replay_live_edges(g);
      expect_identical(g.compact(), fresh);
      // Compacting an already-compacted graph returns the same CSR.
      expect_identical(g.compact(), fresh);
    }
  }
}

TEST(DynamicGraph, CompactionInterleavedWithChurnStaysIdentical) {
  // Compact at random points; the final CSR must still equal the one
  // built from scratch over the surviving records.
  DynamicGraph g(false);
  DynamicGraph oracle(false);  // never compacted until the end
  g.reserve_vertices(16);
  oracle.reserve_vertices(16);
  Rng rng(99);
  for (std::size_t i = 0; i < 500; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(16));
    const auto v = static_cast<VertexId>(rng.next_below(16));
    if (rng.next_below(4) == 0) {
      EXPECT_EQ(g.remove_edge(u, v), oracle.remove_edge(u, v));
    } else {
      g.add_edge(u, v);
      oracle.add_edge(u, v);
    }
    if (rng.next_below(64) == 0) (void)g.compact();
  }
  expect_identical(g.compact(), replay_live_edges(oracle));
}

TEST(DynamicGraph, LiveEdgesReplayReproducesCsr) {
  auto g = churn(false, 11, 350);
  const Graph compacted = g.compact();
  DynamicGraph replay(false);
  replay.reserve_vertices(g.vertex_count());
  for (const auto& e : g.live_edges()) {
    replay.add_edge(e.u, e.v, e.weight, e.timestamp);
  }
  expect_identical(replay.compact(), compacted);
}

TEST(DynamicGraph, DirtySetTracksMutationEndpoints) {
  DynamicGraph g(false);
  g.reserve_vertices(10);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  EXPECT_EQ(g.drain_dirty(), 4u);
  EXPECT_EQ(g.drain_dirty(), 0u);

  // A vertex counts once however many mutations touch it.
  EXPECT_TRUE(g.remove_edge(1, 2));
  g.add_edge(2, 1);
  EXPECT_EQ(g.drain_dirty(), 2u);
  // A remove that matches nothing dirties nothing.
  EXPECT_FALSE(g.remove_edge(7, 8));
  EXPECT_EQ(g.drain_dirty(), 0u);
}

TEST(DynamicGraph, RemoveMatchesEitherOrientationWhenUndirected) {
  DynamicGraph g(false);
  g.add_edge(2, 5);
  EXPECT_TRUE(g.remove_edge(5, 2));
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.live_edges().empty());

  DynamicGraph d(true);
  d.add_edge(2, 5);
  EXPECT_FALSE(d.remove_edge(5, 2));
  EXPECT_TRUE(d.remove_edge(2, 5));
}

TEST(DynamicGraph, ApplyBatchCountsEffectiveDeltas) {
  DynamicGraph g(false);
  g.reserve_vertices(4);
  const std::vector<EdgeDelta> deltas{
      {EdgeDelta::Op::kInsert, 0, 1, 2.0, graph::kNoTimestamp},
      {EdgeDelta::Op::kInsert, 1, 2, 1.0, graph::kNoTimestamp},
      {EdgeDelta::Op::kRemove, 0, 1, 1.0, graph::kNoTimestamp},
      {EdgeDelta::Op::kRemove, 0, 3, 1.0, graph::kNoTimestamp},  // absent
  };
  EXPECT_EQ(g.apply(std::span<const EdgeDelta>(deltas)), 3u);
  EXPECT_EQ(g.edge_count(), 1u);
  const auto live = g.live_edges();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].u, 1u);
  EXPECT_EQ(live[0].v, 2u);
}

TEST(DynamicGraph, WeightsAndTimestampsSurviveCompaction) {
  DynamicGraph g(false);
  g.add_edge(0, 1, 2.5, 10.0);
  g.add_edge(1, 2, 0.5, 20.0);
  const Graph csr = g.compact();
  ASSERT_TRUE(csr.has_edge_weights());
  ASSERT_TRUE(csr.has_timestamps());
  EXPECT_EQ(csr.arc_weights(0)[0], 2.5);
  EXPECT_EQ(csr.arc_timestamps(0)[0], 10.0);
}

TEST(DynamicGraph, VertexCountGrowsWithEndpoints) {
  DynamicGraph g(false);
  EXPECT_EQ(g.vertex_count(), 0u);
  g.add_edge(0, 9);
  EXPECT_EQ(g.vertex_count(), 10u);
  g.reserve_vertices(4);  // never shrinks
  EXPECT_EQ(g.vertex_count(), 10u);
  g.reserve_vertices(15);
  EXPECT_EQ(g.vertex_count(), 15u);
  EXPECT_EQ(g.compact().vertex_count(), 15u);
}

TEST(DynamicGraph, RejectsNegativeWeight) {
  DynamicGraph g(false);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), std::invalid_argument);
}

TEST(DynamicGraph, ParallelEdgesRemoveOneAtATime) {
  DynamicGraph g(false);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 2.0);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
  // The earliest surviving record goes first; the weight-2 edge remains.
  const auto live = g.live_edges();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].weight, 2.0);
  EXPECT_EQ(g.compact().arc_weights(0)[0], 2.0);
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(0, 1));
}

TEST(DynamicGraph, SelfLoopCompactsLikeGraphBuilder) {
  DynamicGraph g(false);
  g.add_edge(3, 3);
  g.add_edge(1, 3);
  GraphBuilder builder(false);
  builder.add_edge(3, 3);
  builder.add_edge(1, 3);
  expect_identical(g.compact(), builder.build());
}

}  // namespace
}  // namespace v2v::dynamic
