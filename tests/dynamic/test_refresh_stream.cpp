// Streamed RefreshSession contracts: with walk_config.streaming set,
// every round trains from a StreamedCorpus of the compacted graph, and
// every observable output (embedding, checkpoint lineage, every epoch
// loss of every round) is bit-identical to the RAM-resident session.
#include "v2v/dynamic/refresh.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/obs/metrics.hpp"

namespace v2v::dynamic {
namespace {

using graph::VertexId;

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

void expect_embeddings_equal(const embed::Embedding& a,
                             const embed::Embedding& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  ASSERT_EQ(a.dimensions(), b.dimensions());
  for (std::size_t v = 0; v < a.vertex_count(); ++v) {
    const auto va = a.vector(v), vb = b.vector(v);
    ASSERT_EQ(0, std::memcmp(va.data(), vb.data(), va.size() * sizeof(float)))
        << "vertex " << v;
  }
}

/// The checkpoint a session carries into its next round.
void expect_checkpoints_equal(const embed::TrainerCheckpoint& a,
                              const embed::TrainerCheckpoint& b) {
  ASSERT_TRUE(a.syn1 == b.syn1);
  EXPECT_EQ(a.frequencies, b.frequencies);
  EXPECT_EQ(a.tokens_processed, b.tokens_processed);
  EXPECT_EQ(a.last_lr, b.last_lr);
  EXPECT_EQ(a.walk_seed, b.walk_seed);
  EXPECT_EQ(a.refresh_rounds, b.refresh_rounds);
}

/// Every epoch loss of every round the session trained, bootstrap first.
std::vector<double> epoch_losses(const obs::MetricsRegistry& metrics) {
  return metrics.snapshot().series.at("train.epoch_loss");
}

walk::WalkConfig streamed(walk::WalkConfig config) {
  config.streaming = true;
  return config;
}

TEST(DynamicRefreshStream, BootstrapAndRefreshMatchRamSession) {
  const std::uint64_t master_seed = 29;
  obs::MetricsRegistry stream_metrics, ram_metrics;
  RefreshSession stream(seed_graph(40, 100, 7), streamed(small_walk_config()),
                        small_train_config(), {}, master_seed, &stream_metrics);
  RefreshSession ram(seed_graph(40, 100, 7), small_walk_config(),
                     small_train_config(), {}, master_seed, &ram_metrics);
  expect_embeddings_equal(stream.embedding(), ram.embedding());
  expect_checkpoints_equal(stream.checkpoint(), ram.checkpoint());

  const auto deltas = churn_deltas(40, 10, 500);
  stream.apply(std::span<const EdgeDelta>(deltas));
  ram.apply(std::span<const EdgeDelta>(deltas));
  const RefreshStats stream_stats = stream.refresh();
  const RefreshStats ram_stats = ram.refresh();
  EXPECT_EQ(stream_stats.dirty_vertices, ram_stats.dirty_vertices);
  EXPECT_EQ(stream_stats.train.epoch_loss, ram_stats.train.epoch_loss);
  expect_embeddings_equal(stream.embedding(), ram.embedding());
  expect_checkpoints_equal(stream.checkpoint(), ram.checkpoint());
  // 3 bootstrap epochs, then the refresh's 2.
  EXPECT_EQ(epoch_losses(stream_metrics).size(), 5u);
  EXPECT_EQ(epoch_losses(stream_metrics), epoch_losses(ram_metrics));
}

TEST(DynamicRefreshStream, FullRetrainMatchesRamSession) {
  obs::MetricsRegistry stream_metrics, ram_metrics;
  RefreshSession session(seed_graph(30, 70, 11), streamed(small_walk_config()),
                         small_train_config(), {}, 41, &stream_metrics);
  session.apply(std::span<const EdgeDelta>(churn_deltas(30, 6, 900)));
  const auto stats = session.full_retrain();
  EXPECT_TRUE(stats.full_retrain);

  RefreshSession ram_session(seed_graph(30, 70, 11), small_walk_config(),
                             small_train_config(), {}, 41, &ram_metrics);
  ram_session.apply(std::span<const EdgeDelta>(churn_deltas(30, 6, 900)));
  const auto ram_stats = ram_session.full_retrain();
  EXPECT_EQ(stats.train.epoch_loss, ram_stats.train.epoch_loss);
  expect_embeddings_equal(session.embedding(), ram_session.embedding());
  expect_checkpoints_equal(session.checkpoint(), ram_session.checkpoint());
  EXPECT_EQ(epoch_losses(stream_metrics), epoch_losses(ram_metrics));
}

}  // namespace
}  // namespace v2v::dynamic
