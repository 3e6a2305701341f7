#include "v2v/embed/trainer.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "v2v/graph/generators.hpp"
#include "v2v/walk/walker.hpp"

namespace v2v::embed {
namespace {

walk::Corpus planted_corpus(double alpha, std::size_t* vocab_out,
                            std::vector<std::uint32_t>* community_out = nullptr) {
  graph::PlantedPartitionParams params;
  params.groups = 4;
  params.group_size = 20;
  params.alpha = alpha;
  params.inter_edges = 30;
  Rng rng(17);
  auto planted = graph::make_planted_partition(params, rng);
  walk::WalkConfig config;
  config.walks_per_vertex = 8;
  config.walk_length = 30;
  *vocab_out = planted.graph.vertex_count();
  if (community_out != nullptr) *community_out = std::move(planted.community);
  return walk::generate_corpus(planted.graph, config, 23);
}

TrainConfig fast_config() {
  TrainConfig config;
  config.dimensions = 16;
  config.epochs = 3;
  config.seed = 5;
  return config;
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

TEST(Trainer, OutputShapeMatchesConfig) {
  std::size_t vocab = 0;
  const auto corpus = planted_corpus(0.5, &vocab);
  const auto result = train_embedding(corpus, vocab, fast_config());
  EXPECT_EQ(result.embedding.vertex_count(), vocab);
  EXPECT_EQ(result.embedding.dimensions(), 16u);
  EXPECT_EQ(result.stats.epochs_run, 3u);
  EXPECT_EQ(result.stats.epoch_loss.size(), 3u);
  EXPECT_GT(result.stats.examples, 0u);
}

TEST(Trainer, CbowLearnsCommunityStructure) {
  std::size_t vocab = 0;
  std::vector<std::uint32_t> community;
  const auto corpus = planted_corpus(0.6, &vocab, &community);
  const auto result = train_embedding(corpus, vocab, fast_config());
  EXPECT_GT(community_margin(result.embedding, community), 0.3);
}

TEST(Trainer, SkipGramLearnsCommunityStructure) {
  std::size_t vocab = 0;
  std::vector<std::uint32_t> community;
  const auto corpus = planted_corpus(0.6, &vocab, &community);
  TrainConfig config = fast_config();
  config.architecture = Architecture::kSkipGram;
  config.initial_lr = 0.025;
  const auto result = train_embedding(corpus, vocab, config);
  EXPECT_GT(community_margin(result.embedding, community), 0.3);
}

TEST(Trainer, HierarchicalSoftmaxLearnsCommunityStructure) {
  std::size_t vocab = 0;
  std::vector<std::uint32_t> community;
  const auto corpus = planted_corpus(0.6, &vocab, &community);
  TrainConfig config = fast_config();
  config.objective = Objective::kHierarchicalSoftmax;
  const auto result = train_embedding(corpus, vocab, config);
  EXPECT_GT(community_margin(result.embedding, community), 0.3);
}

TEST(Trainer, LossDecreasesOverEpochs) {
  std::size_t vocab = 0;
  const auto corpus = planted_corpus(0.5, &vocab);
  TrainConfig config = fast_config();
  config.epochs = 5;
  const auto result = train_embedding(corpus, vocab, config);
  ASSERT_EQ(result.stats.epoch_loss.size(), 5u);
  EXPECT_LT(result.stats.epoch_loss.back(), result.stats.epoch_loss.front());
}

TEST(Trainer, DeterministicSingleThread) {
  std::size_t vocab = 0;
  const auto corpus = planted_corpus(0.5, &vocab);
  const auto a = train_embedding(corpus, vocab, fast_config());
  const auto b = train_embedding(corpus, vocab, fast_config());
  EXPECT_TRUE(a.embedding.matrix() == b.embedding.matrix());
  EXPECT_EQ(a.stats.epoch_loss, b.stats.epoch_loss);
}

TEST(Trainer, SeedChangesResult) {
  std::size_t vocab = 0;
  const auto corpus = planted_corpus(0.5, &vocab);
  TrainConfig config = fast_config();
  const auto a = train_embedding(corpus, vocab, config);
  config.seed = 6;
  const auto b = train_embedding(corpus, vocab, config);
  EXPECT_FALSE(a.embedding.matrix() == b.embedding.matrix());
}

TEST(Trainer, EarlyStoppingTriggersOnConvergedCorpus) {
  std::size_t vocab = 0;
  const auto corpus = planted_corpus(1.0, &vocab);
  TrainConfig config = fast_config();
  config.epochs = 40;
  config.min_epochs = 2;
  config.convergence_tol = 0.5;  // very lax: stop as soon as gains halve
  const auto result = train_embedding(corpus, vocab, config);
  EXPECT_TRUE(result.stats.converged_early);
  EXPECT_LT(result.stats.epochs_run, 40u);
}

TEST(Trainer, MultithreadedTrainingStillLearns) {
  std::size_t vocab = 0;
  std::vector<std::uint32_t> community;
  const auto corpus = planted_corpus(0.6, &vocab, &community);
  TrainConfig config = fast_config();
  config.threads = 4;
  const auto result = train_embedding(corpus, vocab, config);
  EXPECT_GT(community_margin(result.embedding, community), 0.3);
}

TEST(Trainer, SubsamplingReducesExamples) {
  std::size_t vocab = 0;
  const auto corpus = planted_corpus(0.5, &vocab);
  TrainConfig config = fast_config();
  const auto full = train_embedding(corpus, vocab, config);
  config.subsample = 1e-4;  // aggressive for this tiny corpus
  const auto sampled = train_embedding(corpus, vocab, config);
  EXPECT_LT(sampled.stats.examples, full.stats.examples);
}

TEST(Trainer, UnvisitedVertexKeepsSmallVector) {
  walk::Corpus corpus;
  corpus.add_walk(std::vector<graph::VertexId>{0, 1, 0, 1, 0, 1});
  TrainConfig config = fast_config();
  config.epochs = 2;
  // Vocab is 3 but vertex 2 never appears.
  const auto result = train_embedding(corpus, 3, config);
  double norm2 = 0.0;
  for (const float x : result.embedding.vector(2)) {
    norm2 += static_cast<double>(x) * x;
  }
  // Init range is +-0.5/dims per coordinate.
  EXPECT_LT(norm2, 16.0 * (0.5 / 16.0) * (0.5 / 16.0) + 1e-9);
}

TEST(Trainer, InvalidConfigThrows) {
  walk::Corpus corpus;
  corpus.add_walk(std::vector<graph::VertexId>{0, 1});
  const auto expect_rejected = [&](const TrainConfig& config, const char* what) {
    EXPECT_THROW((void)train_embedding(corpus, 2, config), std::invalid_argument)
        << what;
  };
  TrainConfig config = fast_config();
  config.dimensions = 0;
  expect_rejected(config, "dimensions 0");
  config = fast_config();
  config.window = 0;
  expect_rejected(config, "window 0");
  config = fast_config();
  config.epochs = 0;
  expect_rejected(config, "epochs 0");
  EXPECT_THROW((void)train_embedding(corpus, 0, fast_config()), std::invalid_argument);

  // Each of these used to train silently: a NaN or overflowing rate to an
  // all-NaN embedding, a negative one by gradient ascent, a floor above 1
  // at a multiple of the initial rate.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double lr : {nan, inf, -inf, 1e300, 0.0, -0.05}) {
    config = fast_config();
    config.initial_lr = lr;
    expect_rejected(config, "initial_lr");
  }
  for (const double fraction : {nan, inf, -inf, 2.0, -0.1}) {
    config = fast_config();
    config.min_lr_fraction = fraction;
    expect_rejected(config, "min_lr_fraction");
  }
  for (const double subsample : {nan, inf, -inf, -1e-3}) {
    config = fast_config();
    config.subsample = subsample;
    expect_rejected(config, "subsample");
  }
  for (const double tol : {nan, inf, -inf, -0.1}) {
    config = fast_config();
    config.convergence_tol = tol;
    expect_rejected(config, "convergence_tol");
  }

  // The edges of each range still train.
  config = fast_config();
  config.initial_lr = std::numeric_limits<float>::denorm_min();
  config.min_lr_fraction = 1.0;
  EXPECT_NO_THROW((void)train_embedding(corpus, 2, config));
  config.initial_lr = std::numeric_limits<float>::max();
  EXPECT_NO_THROW((void)train_embedding(corpus, 2, config));
  config = fast_config();
  config.min_lr_fraction = 0.0;
  config.subsample = 0.0;
  config.convergence_tol = 0.0;
  EXPECT_NO_THROW((void)train_embedding(corpus, 2, config));
}

TEST(Trainer, InvalidConfigThrowsOnResumeAndStreaming) {
  // Resume and streaming share the cold path's validation.
  walk::Corpus corpus;
  corpus.add_walk(std::vector<graph::VertexId>{0, 1, 0, 1});
  TrainConfig config = fast_config();
  config.capture_checkpoint = true;
  const auto warm = train_embedding(corpus, 2, config);
  ASSERT_TRUE(warm.checkpoint.has_value());
  config.initial_lr = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(
      (void)train_embedding_resume(corpus, warm.embedding, *warm.checkpoint, config),
      std::invalid_argument);
  const auto g = graph::make_ring(6);
  walk::WalkConfig walks;
  walks.walks_per_vertex = 2;
  walks.walk_length = 5;
  config = fast_config();
  config.min_lr_fraction = 2.0;
  EXPECT_THROW((void)train_embedding_streaming(g, walks, config), std::invalid_argument);
}

TEST(Trainer, TokenOutOfVocabThrows) {
  walk::Corpus corpus;
  corpus.add_walk(std::vector<graph::VertexId>{0, 5});
  EXPECT_THROW((void)train_embedding(corpus, 2, fast_config()), std::invalid_argument);
}

TEST(Trainer, EmptyCorpusProducesInitVectors) {
  const walk::Corpus corpus;  // no walks at all
  const auto result = train_embedding(corpus, 4, fast_config());
  EXPECT_EQ(result.embedding.vertex_count(), 4u);
  EXPECT_EQ(result.stats.examples, 0u);
}

// Property sweep: every architecture x objective combination learns the
// planted structure above chance.
struct ComboParam {
  Architecture architecture;
  Objective objective;
};

class TrainerComboSweep : public ::testing::TestWithParam<ComboParam> {};

TEST_P(TrainerComboSweep, LearnsStructure) {
  std::size_t vocab = 0;
  std::vector<std::uint32_t> community;
  const auto corpus = planted_corpus(0.7, &vocab, &community);
  TrainConfig config = fast_config();
  config.architecture = GetParam().architecture;
  config.objective = GetParam().objective;
  if (config.architecture == Architecture::kSkipGram) config.initial_lr = 0.025;
  const auto result = train_embedding(corpus, vocab, config);
  EXPECT_GT(community_margin(result.embedding, community), 0.2);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, TrainerComboSweep,
    ::testing::Values(ComboParam{Architecture::kCbow, Objective::kNegativeSampling},
                      ComboParam{Architecture::kCbow, Objective::kHierarchicalSoftmax},
                      ComboParam{Architecture::kSkipGram, Objective::kNegativeSampling},
                      ComboParam{Architecture::kSkipGram,
                                 Objective::kHierarchicalSoftmax}));

}  // namespace
}  // namespace v2v::embed
