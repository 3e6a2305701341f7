// RefreshSession contracts: a bootstrap matches a plain learn_embedding
// run bit-for-bit, every refresh trains on the corpus of the graph it ends
// with whatever came before, and a session resumed from persisted state
// continues *identically* to one that never exited — the property that
// makes snapshot-v3 warm starts trustworthy.
#include "v2v/dynamic/refresh.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/core/v2v.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/obs/metrics.hpp"

namespace v2v::dynamic {
namespace {

using graph::VertexId;

void expect_embeddings_equal(const embed::Embedding& a,
                             const embed::Embedding& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  ASSERT_EQ(a.dimensions(), b.dimensions());
  for (std::size_t v = 0; v < a.vertex_count(); ++v) {
    const auto va = a.vector(v), vb = b.vector(v);
    for (std::size_t i = 0; i < va.size(); ++i) {
      ASSERT_EQ(va[i], vb[i]) << "vertex " << v << " component " << i;
    }
  }
}

walk::WalkConfig small_walk_config() {
  walk::WalkConfig config;
  config.walks_per_vertex = 3;
  config.walk_length = 8;
  return config;
}

embed::TrainConfig small_train_config() {
  embed::TrainConfig config;
  config.dimensions = 8;
  config.window = 2;
  config.negative = 3;
  config.epochs = 3;
  config.min_epochs = 3;
  return config;
}

/// A DynamicGraph seeded with a G(n, m) edge set in deterministic order.
DynamicGraph seed_graph(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  const auto base = graph::make_erdos_renyi_gnm(n, m, rng);
  DynamicGraph g(false);
  g.reserve_vertices(n);
  for (VertexId u = 0; u < base.vertex_count(); ++u) {
    for (const auto v : base.neighbors(u)) {
      if (v >= u) g.add_edge(u, v);
    }
  }
  return g;
}

std::vector<EdgeDelta> churn_deltas(std::size_t n, std::size_t count,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<EdgeDelta> deltas;
  for (std::size_t i = 0; i < count; ++i) {
    EdgeDelta d;
    d.op = rng.next_below(3) == 0 ? EdgeDelta::Op::kRemove
                                  : EdgeDelta::Op::kInsert;
    d.u = static_cast<VertexId>(rng.next_below(n));
    d.v = static_cast<VertexId>(rng.next_below(n));
    deltas.push_back(d);
  }
  return deltas;
}

TEST(DynamicRefresh, BootstrapMatchesLearnEmbedding) {
  const std::uint64_t master_seed = 17;
  auto g = seed_graph(40, 100, 3);
  const graph::Graph plain = g.compact();

  V2VConfig config;
  config.walk = small_walk_config();
  config.train = small_train_config();
  config.seed = master_seed;
  const auto model = learn_embedding(plain, config);

  const RefreshSession session(std::move(g), config.walk, config.train, {},
                               master_seed);
  expect_embeddings_equal(session.embedding(), model.embedding);
  EXPECT_EQ(session.checkpoint().refresh_rounds, 0u);
  EXPECT_EQ(session.checkpoint().walks_per_vertex,
            config.walk.walks_per_vertex);
}

TEST(DynamicRefresh, CorpusInvariantHoldsAcrossRefreshes) {
  const auto walk_config = small_walk_config();
  const auto train_config = small_train_config();
  RefreshSession session(seed_graph(40, 100, 5), walk_config, train_config,
                         {}, 23);
  for (std::size_t round = 0; round < 2; ++round) {
    embed::Embedding before(session.embedding().matrix());
    const embed::TrainerCheckpoint checkpoint = session.checkpoint();
    session.apply(std::span<const EdgeDelta>(
        churn_deltas(40, 8, 100 + round)));
    const auto stats = session.refresh();
    EXPECT_FALSE(stats.full_retrain);
    EXPECT_EQ(session.checkpoint().refresh_rounds, round + 1);
    // The invariant: a round trains on the corpus of the graph it ends
    // with. A session resumed from the pre-round state on the post-delta
    // edge set and refreshed with no delta lands on the same embedding.
    DynamicGraph rebuilt(false);
    rebuilt.reserve_vertices(session.graph().vertex_count());
    for (const auto& e : session.graph().live_edges()) {
      rebuilt.add_edge(e.u, e.v, e.weight, e.timestamp);
    }
    RefreshSession replay(std::move(rebuilt), std::move(before), checkpoint,
                          walk_config, train_config, {});
    (void)replay.refresh();
    expect_embeddings_equal(session.embedding(), replay.embedding());
  }
}

TEST(DynamicRefresh, RefreshIsDeterministic) {
  auto make = [] {
    RefreshSession session(seed_graph(30, 80, 7), small_walk_config(),
                           small_train_config(), {}, 31);
    session.apply(std::span<const EdgeDelta>(churn_deltas(30, 10, 9)));
    (void)session.refresh();
    return session.embedding();
  };
  expect_embeddings_equal(make(), make());
}

TEST(DynamicRefresh, ResumedSessionContinuesIdentically) {
  const auto walk_config = small_walk_config();
  const auto train_config = small_train_config();
  const auto deltas = churn_deltas(36, 12, 55);

  // Session A: bootstrap, churn, refresh — never exits.
  RefreshSession a(seed_graph(36, 90, 11), walk_config, train_config, {}, 41);
  a.apply(std::span<const EdgeDelta>(deltas));
  (void)a.refresh();

  // Session B: "persist" a bootstrap's state (embedding + checkpoint +
  // live edges), rebuild everything from that state, then apply the same
  // churn. The results must be bit-identical.
  const RefreshSession saved(seed_graph(36, 90, 11), walk_config,
                             train_config, {}, 41);
  DynamicGraph rebuilt(false);
  rebuilt.reserve_vertices(saved.graph().vertex_count());
  for (const auto& e : saved.graph().live_edges()) {
    rebuilt.add_edge(e.u, e.v, e.weight, e.timestamp);
  }
  RefreshSession b(std::move(rebuilt),
                   embed::Embedding(saved.embedding().matrix()),
                   saved.checkpoint(), walk_config, train_config, {});
  b.apply(std::span<const EdgeDelta>(deltas));
  (void)b.refresh();

  expect_embeddings_equal(a.embedding(), b.embedding());
  EXPECT_EQ(a.checkpoint().refresh_rounds, b.checkpoint().refresh_rounds);
  EXPECT_EQ(a.checkpoint().tokens_processed, b.checkpoint().tokens_processed);
}

TEST(DynamicRefresh, FullRetrainResetsLineage) {
  RefreshSession session(seed_graph(30, 70, 13), small_walk_config(),
                         small_train_config(), {}, 3);
  session.apply(std::span<const EdgeDelta>(churn_deltas(30, 6, 2)));
  (void)session.refresh();
  EXPECT_EQ(session.checkpoint().refresh_rounds, 1u);

  session.apply(std::span<const EdgeDelta>(churn_deltas(30, 6, 4)));
  const auto stats = session.full_retrain();
  EXPECT_TRUE(stats.full_retrain);
  EXPECT_EQ(session.checkpoint().refresh_rounds, 0u);
  EXPECT_EQ(session.checkpoint().walk_seed, session.walk_seed());
}

TEST(DynamicRefresh, StatsAccountForEveryStart) {
  RefreshSession session(seed_graph(50, 120, 19), small_walk_config(),
                         small_train_config(), {}, 29);
  session.apply(EdgeDelta{EdgeDelta::Op::kInsert, 0, 1, 1.0,
                          graph::kNoTimestamp});
  const auto stats = session.refresh();
  EXPECT_GE(stats.dirty_vertices, 2u);
  EXPECT_GT(stats.walk_seconds, 0.0);
  EXPECT_GT(stats.train.train_seconds, 0.0);
}

TEST(DynamicRefresh, RefreshGrowsTheGraph) {
  RefreshSession session(seed_graph(30, 80, 6), small_walk_config(),
                         small_train_config(), {}, 8);
  // Edges to brand-new vertices 30, 31 and 34 (32 and 33 come in
  // isolated): every new vertex gets walks and an embedding row.
  const std::pair<VertexId, VertexId> edges[] = {{3, 30}, {30, 31}, {12, 34}};
  for (const auto& [u, v] : edges) {
    session.apply(EdgeDelta{EdgeDelta::Op::kInsert, u, v, 1.0,
                            graph::kNoTimestamp});
  }
  (void)session.refresh();
  EXPECT_EQ(session.graph().vertex_count(), 35u);
  EXPECT_EQ(session.embedding().vertex_count(), 35u);
}

TEST(DynamicRefresh, MetricsRecorded) {
  obs::MetricsRegistry metrics;
  RefreshSession session(seed_graph(24, 60, 23), small_walk_config(),
                         small_train_config(), {}, 37, &metrics);
  session.apply(EdgeDelta{EdgeDelta::Op::kInsert, 2, 3, 1.0,
                          graph::kNoTimestamp});
  const auto stats = session.refresh();
  EXPECT_EQ(metrics.counter("dynamic.refreshes").value(), 1u);
  EXPECT_GT(stats.compact_seconds, 0.0);
  EXPECT_EQ(metrics.gauge("dynamic.compact_seconds").value(),
            stats.compact_seconds);
  (void)session.full_retrain();
  EXPECT_EQ(metrics.counter("dynamic.full_retrains").value(), 1u);
}

}  // namespace
}  // namespace v2v::dynamic
