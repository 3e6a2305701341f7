// Concurrency stress for the Hogwild trainer: many workers updating the
// shared syn0/syn1 matrices lock-free, over both objectives and both
// architectures, plus Hogwild workers redrawing walks from one streamed
// corpus. Runs under ThreadSanitizer in
// CI — the trainer's shared float accesses are relaxed atomics in TSan
// builds (common/relaxed.hpp), so any report here is a real bug.
#include "v2v/embed/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "v2v/common/thread_pool.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/walk/corpus_stream.hpp"
#include "v2v/walk/walker.hpp"

namespace v2v::embed {
namespace {

walk::Corpus small_corpus(const graph::Graph& g) {
  walk::WalkConfig config;
  config.walks_per_vertex = 8;
  config.walk_length = 15;
  config.threads = 4;
  return walk::generate_corpus(g, config, 3);
}

void expect_finite(const Embedding& embedding) {
  for (std::size_t v = 0; v < embedding.vertex_count(); ++v) {
    for (const float x : embedding.vector(v)) {
      ASSERT_TRUE(std::isfinite(x)) << "vertex " << v;
    }
  }
}

TEST(TrainerStress, HogwildCbowNegativeSampling) {
  const auto g = graph::make_ring(60);
  const auto corpus = small_corpus(g);
  TrainConfig config;
  config.dimensions = 16;
  config.window = 3;
  config.epochs = 3;
  config.threads = 8;
  const auto result = train_embedding(corpus, g.vertex_count(), config);
  EXPECT_EQ(result.embedding.vertex_count(), g.vertex_count());
  EXPECT_GT(result.stats.examples, 0u);
  expect_finite(result.embedding);
}

TEST(TrainerStress, HogwildSkipGramHierarchicalSoftmax) {
  const auto g = graph::make_ring(60);
  const auto corpus = small_corpus(g);
  TrainConfig config;
  config.dimensions = 16;
  config.window = 3;
  config.epochs = 2;
  config.threads = 8;
  config.architecture = Architecture::kSkipGram;
  config.objective = Objective::kHierarchicalSoftmax;
  const auto result = train_embedding(corpus, g.vertex_count(), config);
  EXPECT_GT(result.stats.examples, 0u);
  expect_finite(result.embedding);
}

TEST(TrainerStress, HogwildWithSubsampling) {
  // Subsampling exercises the keep_probability read path per token.
  Rng rng(5);
  const auto g = graph::make_barabasi_albert(80, 2, rng);
  const auto corpus = small_corpus(g);
  TrainConfig config;
  config.dimensions = 12;
  config.window = 4;
  config.epochs = 2;
  config.threads = 8;
  config.subsample = 1e-3;
  const auto result = train_embedding(corpus, g.vertex_count(), config);
  expect_finite(result.embedding);
}

TEST(TrainerStress, StreamingTrainerManyThreads) {
  const auto g = graph::make_ring(50);
  walk::WalkConfig walk_config;
  walk_config.walks_per_vertex = 4;
  walk_config.walk_length = 12;
  TrainConfig config;
  config.dimensions = 16;
  config.window = 3;
  config.epochs = 2;
  config.threads = 8;
  const walk::StreamedCorpus stream(g, walk_config, 3);
  const auto result = train_embedding(stream, g.vertex_count(), config);
  EXPECT_EQ(result.embedding.vertex_count(), g.vertex_count());
  EXPECT_GT(result.stats.examples, 0u);
  expect_finite(result.embedding);
}

TEST(TrainerStress, LossStaysFiniteAcrossEpochsUnderContention) {
  const auto g = graph::make_ring(40);
  const auto corpus = small_corpus(g);
  TrainConfig config;
  config.dimensions = 8;
  config.window = 2;
  config.epochs = 5;
  config.threads = 8;
  const auto result = train_embedding(corpus, g.vertex_count(), config);
  ASSERT_EQ(result.stats.epoch_loss.size(), result.stats.epochs_run);
  for (const double loss : result.stats.epoch_loss) {
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GE(loss, 0.0);
  }
}

// Uneven per-worker home ranges: 3 workers over a chunk count that 3 does
// not divide, on a 1,000-vertex graph whose start-vertex-ordered corpus
// gives each worker its own communities until it starts stealing.

graph::PlantedGraph planted_thousand() {
  graph::PlantedPartitionParams params;  // 10 groups of 100
  params.alpha = 0.6;
  Rng rng(41);
  return graph::make_planted_partition(params, rng);
}

TrainConfig three_thread_config() {
  TrainConfig config;
  config.dimensions = 16;
  config.epochs = 2;
  config.threads = 3;
  config.seed = 13;
  return config;
}

double community_margin(const Embedding& e, const std::vector<std::uint32_t>& community) {
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

/// Finite losses, every row moved off its initial vector, and the planted
/// communities recovered (the margin threshold of Trainer's suite).
void expect_trained(const TrainResult& result, const graph::PlantedGraph& planted) {
  for (const double loss : result.stats.epoch_loss) EXPECT_TRUE(std::isfinite(loss));
  expect_finite(result.embedding);
  // An empty corpus trains nothing: the result is the initial vectors.
  const auto initial =
      train_embedding(walk::Corpus{}, planted.graph.vertex_count(), three_thread_config());
  for (std::size_t v = 0; v < result.embedding.vertex_count(); ++v) {
    const auto now = result.embedding.vector(v);
    const auto before = initial.embedding.vector(v);
    EXPECT_FALSE(std::equal(now.begin(), now.end(), before.begin()))
        << "vertex " << v << " never trained";
  }
  EXPECT_GT(community_margin(result.embedding, planted.community), 0.3);
}

TEST(TrainerStress, ThreeWorkersUnevenHomeRangesCbowNegativeSampling) {
  const auto planted = planted_thousand();
  walk::WalkConfig walks;
  walks.walks_per_vertex = 5;
  walks.walk_length = 20;
  walks.threads = 3;
  const auto corpus = walk::generate_corpus(planted.graph, walks, 43);
  const TrainConfig config = three_thread_config();
  const std::size_t chunks =
      chunk_count(corpus.walk_count(), default_grain(corpus.walk_count(), config.threads));
  ASSERT_NE(chunks % config.threads, 0u) << "home ranges must be uneven";
  const auto result = train_embedding(corpus, planted.graph.vertex_count(), config);
  expect_trained(result, planted);
}

TEST(TrainerStress, ThreeWorkersUnevenHomeRangesStreaming) {
  const auto planted = planted_thousand();
  walk::WalkConfig walks;
  walks.walks_per_vertex = 5;
  walks.walk_length = 20;
  walks.threads = 3;
  const walk::StreamedCorpus stream(planted.graph, walks, 43);
  const TrainConfig config = three_thread_config();
  const std::size_t chunks =
      chunk_count(stream.walk_count(), default_grain(stream.walk_count(), config.threads));
  ASSERT_NE(chunks % config.threads, 0u) << "home ranges must be uneven";
  const auto result = train_embedding(stream, planted.graph.vertex_count(), config);
  expect_trained(result, planted);
}

}  // namespace
}  // namespace v2v::embed
