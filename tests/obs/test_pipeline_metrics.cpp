// End-to-end: a full learn_embedding + detect_communities run must leave
// the walk/train/kmeans telemetry the ISSUE's acceptance criteria name —
// stage spans for every pipeline phase plus walks/sec and words/sec.
#include <gtest/gtest.h>

#include "v2v/core/v2v.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/obs/export.hpp"
#include "v2v/obs/metrics.hpp"

namespace v2v {
namespace {

graph::PlantedGraph small_graph() {
  graph::PlantedPartitionParams params;
  params.groups = 4;
  params.group_size = 20;
  params.alpha = 0.8;
  params.inter_edges = 20;
  Rng rng(11);
  return graph::make_planted_partition(params, rng);
}

const obs::StageSnapshot* find_stage(const obs::StageSnapshot& node,
                                     const std::string& name) {
  if (node.name == name) return &node;
  for (const auto& child : node.children) {
    if (const auto* found = find_stage(child, name)) return found;
  }
  return nullptr;
}

TEST(ObsPipeline, LearnEmbeddingRecordsWalkAndTrainTelemetry) {
  const auto planted = small_graph();
  obs::MetricsRegistry metrics;
  V2VConfig config;
  config.walk.walks_per_vertex = 4;
  config.walk.walk_length = 20;
  config.train.dimensions = 8;
  config.train.epochs = 2;
  config.metrics = &metrics;

  const auto model = learn_embedding(planted.graph, config);
  const auto detected = detect_communities(model.embedding, 4, {}, &metrics);
  EXPECT_EQ(detected.labels.size(), planted.graph.vertex_count());

  const auto snap = metrics.snapshot();

  // Counters: the walk budget is exact, training ran both epochs.
  EXPECT_EQ(snap.counters.at("walk.walks"), planted.graph.vertex_count() * 4);
  EXPECT_GT(snap.counters.at("walk.steps"), 0u);
  EXPECT_EQ(snap.counters.at("train.epochs"), 2u);
  EXPECT_GT(snap.counters.at("train.examples"), 0u);
  EXPECT_EQ(snap.counters.at("kmeans.restarts"), 100u);

  // Throughput gauges exist and are positive.
  EXPECT_GT(snap.gauges.at("walk.walks_per_sec"), 0.0);
  EXPECT_GT(snap.gauges.at("train.words_per_sec"), 0.0);
  EXPECT_GE(snap.gauges.at("walk.shard_imbalance"), 1.0);

  // Trajectories: one loss and one lr sample per epoch.
  EXPECT_EQ(snap.series.at("train.epoch_loss").size(), 2u);
  EXPECT_EQ(snap.series.at("train.lr").size(), 2u);
  EXPECT_EQ(snap.series.at("kmeans.restart_sse").size(), 100u);

  // Stage tree: walk and train nest under learn_embedding; kmeans is a
  // sibling stage.
  const auto* pipeline = find_stage(snap.stages, "learn_embedding");
  ASSERT_NE(pipeline, nullptr);
  ASSERT_NE(find_stage(*pipeline, "walk"), nullptr);
  const auto* train = find_stage(*pipeline, "train");
  ASSERT_NE(train, nullptr);
  const auto* epoch = find_stage(*train, "epoch");
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->calls, 2u);
  const auto* kmeans = find_stage(snap.stages, "kmeans");
  ASSERT_NE(kmeans, nullptr);
  EXPECT_GT(kmeans->seconds, 0.0);

  // The sidecar renders and parses.
  const auto doc = obs::parse_json(obs::to_json(metrics));
  EXPECT_EQ(doc.at("schema").string, "v2v.metrics.v1");
  EXPECT_TRUE(doc.at("counters").contains("walk.walks"));
  EXPECT_TRUE(doc.at("gauges").contains("train.words_per_sec"));
}

TEST(ObsPipeline, StreamingModeRecordsTrainTelemetry) {
  const auto planted = small_graph();
  obs::MetricsRegistry metrics;
  V2VConfig config;
  config.walk.streaming = true;
  config.walk.walks_per_vertex = 2;
  config.walk.walk_length = 15;
  config.train.dimensions = 8;
  config.train.epochs = 2;
  config.metrics = &metrics;

  const auto model = learn_embedding(planted.graph, config);
  EXPECT_EQ(model.embedding.vertex_count(), planted.graph.vertex_count());

  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("train.epochs"), 2u);
  EXPECT_GT(snap.counters.at("train.examples"), 0u);
  ASSERT_NE(find_stage(snap.stages, "train"), nullptr);
  // The counting pass records the walk stage and telemetry of a RAM run.
  ASSERT_NE(find_stage(snap.stages, "walk"), nullptr);
  EXPECT_EQ(snap.counters.at("walk.walks"), model.corpus_walks);
  EXPECT_EQ(snap.counters.at("walk.tokens"), model.corpus_tokens);
}

TEST(ObsPipeline, NullRegistryLeavesResultsIdentical) {
  const auto planted = small_graph();
  V2VConfig config;
  config.walk.walks_per_vertex = 3;
  config.walk.walk_length = 15;
  config.train.dimensions = 8;
  config.train.epochs = 2;

  const auto plain = learn_embedding(planted.graph, config);
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  const auto instrumented = learn_embedding(planted.graph, config);

  // Instrumentation must not perturb the numerics: same seed, same model.
  ASSERT_EQ(plain.embedding.vertex_count(), instrumented.embedding.vertex_count());
  ASSERT_EQ(plain.embedding.dimensions(), instrumented.embedding.dimensions());
  for (std::size_t v = 0; v < plain.embedding.vertex_count(); ++v) {
    const auto a = plain.embedding.vector(v);
    const auto b = instrumented.embedding.vector(v);
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  }
}

}  // namespace
}  // namespace v2v
