// Warm-start training continuation: checkpoint capture, deterministic
// resume, vocabulary growth under negative sampling, and the
// hierarchical-softmax growth restriction (the Huffman tree is frozen in
// the checkpoint).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/embed/trainer.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/walk/corpus_stream.hpp"
#include "v2v/walk/walker.hpp"

namespace v2v::embed {
namespace {

using walk::Corpus;

Corpus make_corpus(std::size_t n, std::size_t m, std::uint64_t graph_seed,
                   std::uint64_t walk_seed) {
  Rng rng(graph_seed);
  const auto g = graph::make_erdos_renyi_gnm(n, m, rng);
  walk::WalkConfig config;
  config.walks_per_vertex = 3;
  config.walk_length = 10;
  return walk::generate_corpus(g, config, walk_seed);
}

TrainConfig small_config(Objective objective = Objective::kNegativeSampling) {
  TrainConfig config;
  config.dimensions = 6;
  config.window = 2;
  config.negative = 3;
  config.epochs = 2;
  config.min_epochs = 2;
  config.objective = objective;
  config.seed = 5;
  return config;
}

void expect_embeddings_equal(const Embedding& a, const Embedding& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  ASSERT_EQ(a.dimensions(), b.dimensions());
  for (std::size_t v = 0; v < a.vertex_count(); ++v) {
    const auto va = a.vector(v), vb = b.vector(v);
    for (std::size_t i = 0; i < va.size(); ++i) ASSERT_EQ(va[i], vb[i]);
  }
}

TEST(TrainerResume, CaptureCheckpointPopulatesOptimizerState) {
  const auto corpus = make_corpus(30, 80, 1, 2);
  auto config = small_config();
  config.capture_checkpoint = true;
  const auto result = train_embedding(corpus, 30, config);
  ASSERT_TRUE(result.checkpoint.has_value());
  const auto& c = *result.checkpoint;
  EXPECT_EQ(c.syn1.rows(), 30u);  // NS: one output row per vertex
  EXPECT_EQ(c.syn1.cols(), config.dimensions);
  EXPECT_EQ(c.frequencies.size(), 30u);
  EXPECT_GT(c.tokens_processed, 0u);
  EXPECT_EQ(c.planned_tokens, corpus.token_count() * config.epochs);
  EXPECT_GT(c.last_lr, 0.0);
  EXPECT_LT(c.last_lr, config.initial_lr);
  EXPECT_EQ(c.dimensions, config.dimensions);
  EXPECT_EQ(c.seed, config.seed);
  EXPECT_EQ(c.refresh_rounds, 0u);
}

TEST(TrainerResume, NoCaptureNoCheckpoint) {
  const auto corpus = make_corpus(20, 50, 3, 4);
  const auto result = train_embedding(corpus, 20, small_config());
  EXPECT_FALSE(result.checkpoint.has_value());
}

TEST(TrainerResume, ResumeIsDeterministic) {
  for (const auto objective :
       {Objective::kNegativeSampling, Objective::kHierarchicalSoftmax}) {
    const auto corpus = make_corpus(25, 60, 7, 8);
    auto config = small_config(objective);
    config.capture_checkpoint = true;
    const auto first = train_embedding(corpus, 25, config);
    ASSERT_TRUE(first.checkpoint.has_value());

    const auto next_corpus = make_corpus(25, 60, 7, 9);
    auto run = [&] {
      return train_embedding_resume(next_corpus, first.embedding,
                                    *first.checkpoint, config);
    };
    const auto a = run();
    const auto b = run();
    expect_embeddings_equal(a.embedding, b.embedding);
    ASSERT_TRUE(a.checkpoint.has_value());
    EXPECT_EQ(a.checkpoint->refresh_rounds, 1u);
    // tokens_processed accumulates across the lineage.
    EXPECT_GT(a.checkpoint->tokens_processed,
              first.checkpoint->tokens_processed);
    EXPECT_EQ(a.checkpoint->tokens_processed, b.checkpoint->tokens_processed);
  }
}

TEST(TrainerResume, ResumeMovesTheEmbedding) {
  // Continued SGD must actually train: the warm start changes.
  const auto corpus = make_corpus(25, 60, 11, 12);
  auto config = small_config();
  config.capture_checkpoint = true;
  const auto first = train_embedding(corpus, 25, config);
  const auto resumed = train_embedding_resume(corpus, first.embedding,
                                              *first.checkpoint, config);
  std::size_t changed = 0;
  for (std::size_t v = 0; v < 25; ++v) {
    const auto a = first.embedding.vector(v), b = resumed.embedding.vector(v);
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) ++changed;
    }
  }
  EXPECT_GT(changed, 0u);
}

TEST(TrainerResume, VocabularyGrowthUnderNegativeSampling) {
  const auto corpus = make_corpus(20, 50, 13, 14);
  auto config = small_config();
  config.capture_checkpoint = true;
  const auto first = train_embedding(corpus, 20, config);

  // New corpus over a larger vertex space; warm rows carry over, new
  // vertices get fresh deterministic rows.
  const auto grown_corpus = make_corpus(28, 70, 15, 16);
  const auto resumed = train_embedding_resume(grown_corpus, first.embedding,
                                              *first.checkpoint, config);
  EXPECT_EQ(resumed.embedding.vertex_count(), 28u);
  EXPECT_EQ(resumed.embedding.dimensions(), config.dimensions);
  ASSERT_TRUE(resumed.checkpoint.has_value());
  EXPECT_EQ(resumed.checkpoint->syn1.rows(), 28u);
  EXPECT_EQ(resumed.checkpoint->frequencies.size(), 28u);
}

TEST(TrainerResume, VocabularyGrowthUnderHierarchicalSoftmaxThrows) {
  const auto corpus = make_corpus(20, 50, 17, 18);
  auto config = small_config(Objective::kHierarchicalSoftmax);
  config.capture_checkpoint = true;
  const auto first = train_embedding(corpus, 20, config);
  const auto grown_corpus = make_corpus(26, 65, 19, 20);
  EXPECT_THROW((void)train_embedding_resume(grown_corpus, first.embedding,
                                            *first.checkpoint, config),
               std::exception);
}

TEST(TrainerResume, MismatchedConfigRejected) {
  const auto corpus = make_corpus(20, 50, 21, 22);
  auto config = small_config();
  config.capture_checkpoint = true;
  const auto first = train_embedding(corpus, 20, config);

  auto wrong_dims = config;
  wrong_dims.dimensions = 12;
  EXPECT_THROW((void)train_embedding_resume(corpus, first.embedding,
                                            *first.checkpoint, wrong_dims),
               std::exception);

  auto wrong_objective = config;
  wrong_objective.objective = Objective::kHierarchicalSoftmax;
  EXPECT_THROW((void)train_embedding_resume(corpus, first.embedding,
                                            *first.checkpoint,
                                            wrong_objective),
               std::exception);
}

TEST(TrainerResume, StreamingCaptureCarriesFrequencies) {
  Rng rng(23);
  const auto g = graph::make_erdos_renyi_gnm(20, 50, rng);
  walk::WalkConfig walk_config;
  walk_config.walks_per_vertex = 2;
  walk_config.walk_length = 8;
  auto config = small_config();
  config.capture_checkpoint = true;
  const walk::StreamedCorpus stream(g, walk_config, 3);
  const auto result = train_embedding(stream, g.vertex_count(), config);
  ASSERT_TRUE(result.checkpoint.has_value());
  EXPECT_EQ(result.checkpoint->frequencies, stream.vertex_frequencies(20));
  EXPECT_EQ(result.checkpoint->frequencies,
            walk::generate_corpus(g, walk_config, 3).vertex_frequencies(20));
  EXPECT_EQ(result.checkpoint->syn1.rows(), 20u);
}

}  // namespace
}  // namespace v2v::embed
