// Tests for training from a StreamedCorpus: walks redrawn on demand must
// train the materialized corpus's embedding bit for bit at one thread,
// without ever holding the corpus in memory.
#include <gtest/gtest.h>

#include "v2v/core/v2v.hpp"
#include "v2v/embed/trainer.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/walk/corpus_stream.hpp"

namespace v2v::embed {
namespace {

graph::PlantedGraph planted(double alpha) {
  graph::PlantedPartitionParams params;
  params.groups = 4;
  params.group_size = 20;
  params.alpha = alpha;
  params.inter_edges = 30;
  Rng rng(51);
  return graph::make_planted_partition(params, rng);
}

double community_margin(const Embedding& e,
                        const std::vector<std::uint32_t>& community) {
  double same = 0.0, cross = 0.0;
  std::size_t same_n = 0, cross_n = 0;
  for (std::size_t a = 0; a < e.vertex_count(); ++a) {
    for (std::size_t b = a + 1; b < e.vertex_count(); ++b) {
      const double sim = e.cosine_similarity(a, b);
      if (community[a] == community[b]) {
        same += sim;
        ++same_n;
      } else {
        cross += sim;
        ++cross_n;
      }
    }
  }
  return same / static_cast<double>(same_n) - cross / static_cast<double>(cross_n);
}

TrainConfig fast_config() {
  TrainConfig config;
  config.dimensions = 16;
  config.epochs = 3;
  config.seed = 5;
  return config;
}

walk::WalkConfig fast_walks() {
  walk::WalkConfig config;
  config.walks_per_vertex = 8;
  config.walk_length = 30;
  return config;
}

/// Trains from the streamed corpus of (g, fast_walks(), walk seed 5).
TrainResult train_streamed(const graph::Graph& g, const TrainConfig& config) {
  const walk::StreamedCorpus corpus(g, fast_walks(), 5);
  return train_embedding(corpus, g.vertex_count(), config);
}

TEST(StreamingTrainer, LearnsCommunityStructure) {
  const auto p = planted(0.6);
  const auto result = train_streamed(p.graph, fast_config());
  EXPECT_GT(community_margin(result.embedding, p.community), 0.3);
  EXPECT_EQ(result.embedding.vertex_count(), p.graph.vertex_count());
  EXPECT_GT(result.stats.examples, 0u);
}

TEST(StreamingTrainer, QualityComparableToMaterialized) {
  // Comparable means identical: the stream replays the RAM corpus.
  const auto p = planted(0.6);
  const auto streaming = train_streamed(p.graph, fast_config());
  const auto corpus = walk::generate_corpus(p.graph, fast_walks(), 5);
  const auto materialized =
      train_embedding(corpus, p.graph.vertex_count(), fast_config());
  EXPECT_EQ(streaming.stats.epoch_loss, materialized.stats.epoch_loss);
  EXPECT_TRUE(streaming.embedding.matrix() == materialized.embedding.matrix());
}

TEST(StreamingTrainer, DeterministicSingleThread) {
  const auto p = planted(0.5);
  const auto a = train_streamed(p.graph, fast_config());
  const auto b = train_streamed(p.graph, fast_config());
  EXPECT_TRUE(a.embedding.matrix() == b.embedding.matrix());
}

TEST(StreamingTrainer, HierarchicalSoftmaxWorks) {
  const auto p = planted(0.6);
  TrainConfig config = fast_config();
  config.objective = Objective::kHierarchicalSoftmax;
  const auto result = train_streamed(p.graph, config);
  EXPECT_GT(community_margin(result.embedding, p.community), 0.25);
}

TEST(StreamingTrainer, MultithreadedStillLearns) {
  const auto p = planted(0.6);
  TrainConfig config = fast_config();
  config.threads = 4;
  const auto result = train_streamed(p.graph, config);
  EXPECT_GT(community_margin(result.embedding, p.community), 0.3);
}

TEST(StreamingTrainer, EmptyGraphThrows) {
  EXPECT_THROW((void)train_streamed(graph::Graph{}, fast_config()),
               std::invalid_argument);
}

TEST(StreamingTrainer, PipelineStreamingFlag) {
  const auto p = planted(0.6);
  V2VConfig config;
  config.walk = fast_walks();
  config.train = fast_config();
  const auto ram = learn_embedding(p.graph, config);
  config.walk.streaming = true;
  const auto model = learn_embedding(p.graph, config);
  EXPECT_EQ(model.corpus_walks, ram.corpus_walks);
  EXPECT_EQ(model.corpus_tokens, ram.corpus_tokens);
  EXPECT_GT(model.corpus_tokens, 0u);
  EXPECT_EQ(model.train_stats.epoch_loss, ram.train_stats.epoch_loss);
  EXPECT_TRUE(model.embedding.matrix() == ram.embedding.matrix());

  // Community detection works identically downstream.
  ml::KMeansConfig kmeans;
  kmeans.restarts = 15;
  const auto detected = detect_communities(model.embedding, 4, kmeans);
  const auto pr = ml::pairwise_precision_recall(p.community, detected.labels);
  EXPECT_GT(pr.f1(), 0.9);
}

}  // namespace
}  // namespace v2v::embed
