// DynamicGraph contracts: merged adjacency equals the from-scratch CSR's
// adjacency, compaction is *byte-identical* to a fresh GraphBuilder run
// over the surviving edges (the determinism contract the refresh
// driver's corpus builds on), and the dirty set tracks exactly the
// endpoints of applied mutations.
#include "v2v/dynamic/dynamic_graph.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/graph/graph.hpp"

namespace v2v::dynamic {
namespace {

using graph::Arc;
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

/// Applies a deterministic random mutation mix and returns the graph.
DynamicGraph churn(bool directed, std::uint64_t seed, std::size_t ops,
                   DynamicGraphConfig config = {}) {
  DynamicGraph g(directed, config);
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

TEST(DynamicGraph, MergedAdjacencyMatchesFreshCsr) {
  for (const bool directed : {false, true}) {
    auto g = churn(directed, 7, 300);
    const Graph fresh = g.build_fresh_csr();
    std::vector<Arc> merged;
    for (VertexId v = 0; v < fresh.vertex_count(); ++v) {
      g.merged_arcs(v, merged);
      const auto targets = fresh.neighbors(v);
      ASSERT_EQ(merged.size(), targets.size()) << "vertex " << v;
      ASSERT_EQ(g.merged_degree(v), targets.size());
      const auto weights = fresh.arc_weights(v);
      for (std::size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i].target, targets[i]);
        if (!weights.empty()) {
          EXPECT_EQ(merged[i].weight, weights[i]);
        }
      }
    }
  }
}

TEST(DynamicGraph, CompactionIsByteIdenticalToFreshBuild) {
  for (const bool directed : {false, true}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      auto g = churn(directed, seed, 400);
      const Graph fresh = g.build_fresh_csr();
      g.compact();
      expect_identical(g.base(), fresh);
      // Compacting an already-compacted graph is a no-op-equivalent.
      g.compact();
      expect_identical(g.base(), fresh);
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
    if (rng.next_below(64) == 0) g.compact();
  }
  g.compact();
  expect_identical(g.base(), oracle.build_fresh_csr());
}

TEST(DynamicGraph, LiveEdgesReplayReproducesCsr) {
  auto g = churn(false, 11, 350);
  g.compact();
  DynamicGraph replay(false);
  replay.reserve_vertices(g.vertex_count());
  for (const auto& e : g.live_edges()) {
    replay.add_edge(e.u, e.v, e.weight, e.timestamp);
  }
  expect_identical(replay.build_fresh_csr(), g.base());
}

TEST(DynamicGraph, DirtySetTracksMutationEndpoints) {
  DynamicGraph g(false);
  g.reserve_vertices(10);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  EXPECT_EQ(g.dirty_count(), 4u);
  EXPECT_EQ(g.drain_dirty(), 4u);
  EXPECT_EQ(g.dirty_count(), 0u);

  // A vertex counts once however many mutations touch it.
  EXPECT_TRUE(g.remove_edge(1, 2));
  g.add_edge(2, 1);
  EXPECT_EQ(g.dirty_count(), 2u);
  // A remove that matches nothing dirties nothing.
  (void)g.drain_dirty();
  EXPECT_FALSE(g.remove_edge(7, 8));
  EXPECT_EQ(g.dirty_count(), 0u);
}

TEST(DynamicGraph, RemoveMatchesEitherOrientationWhenUndirected) {
  DynamicGraph g(false);
  g.add_edge(2, 5);
  EXPECT_TRUE(g.has_edge(5, 2));
  EXPECT_TRUE(g.remove_edge(5, 2));
  EXPECT_EQ(g.edge_count(), 0u);

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
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(DynamicGraph, AutoCompactionHonorsThresholds) {
  DynamicGraphConfig config;
  config.compact_min_delta = 8;
  config.compact_ratio = 10.0;  // needs > 10x base edges to fire
  DynamicGraph g(false, config);
  g.reserve_vertices(64);
  // Seed a 40-edge base so the ratio trigger stays quiet (it would need
  // > 400 overlay mutations) and only the absolute threshold governs.
  for (VertexId i = 0; i < 40; ++i) g.add_edge(i, i + 1);
  g.compact();
  EXPECT_EQ(g.delta_arcs(), 0u);

  for (VertexId i = 0; i < 7; ++i) {
    g.add_edge(i, i + 20);
    EXPECT_FALSE(g.compaction_due());
    EXPECT_FALSE(g.maybe_compact());
  }
  g.add_edge(7, 27);
  EXPECT_TRUE(g.compaction_due());
  EXPECT_TRUE(g.maybe_compact());
  EXPECT_EQ(g.delta_arcs(), 0u);
  EXPECT_EQ(g.base().edge_count(), 48u);
  EXPECT_FALSE(g.maybe_compact());
}

TEST(DynamicGraph, RatioTriggerFiresOnEmptyBase) {
  // With an empty base any mutation exceeds ratio * 0, so streaming
  // bootstrap loads compact on the first maybe_compact().
  DynamicGraph g(false);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.compaction_due());
  EXPECT_TRUE(g.maybe_compact());
  EXPECT_EQ(g.base().edge_count(), 1u);
}

TEST(DynamicGraph, WeightsAndTimestampsSurviveCompaction) {
  DynamicGraph g(false);
  g.add_edge(0, 1, 2.5, 10.0);
  g.add_edge(1, 2, 0.5, 20.0);
  g.compact();
  const auto& base = g.base();
  ASSERT_TRUE(base.has_edge_weights());
  ASSERT_TRUE(base.has_timestamps());
  EXPECT_EQ(base.arc_weights(0)[0], 2.5);
  EXPECT_EQ(base.arc_timestamps(0)[0], 10.0);
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
  g.compact();
  EXPECT_EQ(g.base().vertex_count(), 15u);
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
  EXPECT_TRUE(g.has_edge(0, 1));
  // The earliest surviving record goes first; the weight-2 edge remains.
  g.compact();
  EXPECT_EQ(g.base().arc_weights(0)[0], 2.0);
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
  g.compact();
  expect_identical(g.base(), builder.build());
}

}  // namespace
}  // namespace v2v::dynamic
