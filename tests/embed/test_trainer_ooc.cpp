// Out-of-core training tests: fixed-seed bit-parity between a
// RAM-resident corpus and the disk spool (the tentpole contract of the
// CorpusReader abstraction), plus the OocStress lane the TSan preset
// picks up for multi-threaded spool generation and Hogwild-from-mmap.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "v2v/embed/trainer.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/walk/corpus_spool.hpp"
#include "v2v/walk/walker.hpp"

namespace v2v::embed {
namespace {

namespace fs = std::filesystem;

std::string temp_spool_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
#if defined(__unix__) || defined(__APPLE__)
  const long uid = static_cast<long>(::getpid());
#else
  const long uid = 0;
#endif
  return (fs::temp_directory_path() /
          ("v2v_ooc_test_" + std::to_string(uid) + "_" + info->name()))
      .string();
}

walk::WalkConfig ring_walks(const std::string& spool_dir) {
  walk::WalkConfig config;
  config.walks_per_vertex = 4;
  config.walk_length = 20;
  config.grain = 11;  // several spool segments over 60 vertices
  config.spool_dir = spool_dir;
  return config;
}

void expect_same_embedding(const Embedding& a, const Embedding& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  ASSERT_EQ(a.dimensions(), b.dimensions());
  for (std::size_t v = 0; v < a.vertex_count(); ++v) {
    const auto ra = a.vector(v);
    const auto rb = b.vector(v);
    ASSERT_EQ(0, std::memcmp(ra.data(), rb.data(),
                             ra.size() * sizeof(float)))
        << "vertex " << v;
  }
}

TEST(TrainerOoc, SpooledTrainingIsBitIdenticalToRam) {
  const graph::Graph g = graph::make_ring(60);
  const std::string dir = temp_spool_dir();
  walk::WalkConfig walk_config = ring_walks(dir);

  const walk::Corpus ram = walk::generate_corpus(g, walk_config, 77);
  (void)walk::generate_corpus_spooled(g, walk_config, 77);
  const walk::SpooledCorpus spooled = walk::SpooledCorpus::open(dir);

  TrainConfig config;
  config.dimensions = 12;
  config.epochs = 3;
  config.seed = 9;
  config.threads = 1;  // Hogwild parity holds at one worker

  const auto from_ram = train_embedding(ram, g.vertex_count(), config);
  const auto from_spool = train_embedding(spooled, g.vertex_count(), config);
  fs::remove_all(dir);

  ASSERT_EQ(from_spool.stats.epoch_loss.size(),
            from_ram.stats.epoch_loss.size());
  for (std::size_t e = 0; e < from_ram.stats.epoch_loss.size(); ++e) {
    ASSERT_EQ(from_spool.stats.epoch_loss[e], from_ram.stats.epoch_loss[e])
        << "epoch " << e;
  }
  EXPECT_EQ(from_spool.stats.examples, from_ram.stats.examples);
  expect_same_embedding(from_ram.embedding, from_spool.embedding);
}

TEST(TrainerOoc, SkipGramHierarchicalSoftmaxParity) {
  // The parity contract is backing-agnostic, not architecture-specific:
  // cover the other objective/architecture corner too.
  const graph::Graph g = graph::make_ring(40);
  const std::string dir = temp_spool_dir();
  walk::WalkConfig walk_config = ring_walks(dir);

  const walk::Corpus ram = walk::generate_corpus(g, walk_config, 31);
  (void)walk::generate_corpus_spooled(g, walk_config, 31);
  const walk::SpooledCorpus spooled = walk::SpooledCorpus::open(dir);

  TrainConfig config;
  config.dimensions = 8;
  config.epochs = 2;
  config.seed = 4;
  config.architecture = Architecture::kSkipGram;
  config.objective = Objective::kHierarchicalSoftmax;

  const auto from_ram = train_embedding(ram, g.vertex_count(), config);
  const auto from_spool = train_embedding(spooled, g.vertex_count(), config);
  fs::remove_all(dir);

  ASSERT_EQ(from_spool.stats.epoch_loss, from_ram.stats.epoch_loss);
  expect_same_embedding(from_ram.embedding, from_spool.embedding);
}

TEST(TrainerOoc, ResumeFromSpoolMatchesRamResume) {
  const graph::Graph g = graph::make_ring(50);
  const std::string dir = temp_spool_dir();
  walk::WalkConfig walk_config = ring_walks(dir);

  const walk::Corpus ram = walk::generate_corpus(g, walk_config, 19);
  (void)walk::generate_corpus_spooled(g, walk_config, 19);
  const walk::SpooledCorpus spooled = walk::SpooledCorpus::open(dir);

  TrainConfig config;
  config.dimensions = 10;
  config.epochs = 2;
  config.seed = 6;
  config.capture_checkpoint = true;
  const auto base = train_embedding(ram, g.vertex_count(), config);
  ASSERT_TRUE(base.checkpoint.has_value());

  TrainConfig more = config;
  more.epochs = 1;
  const auto resumed_ram = train_embedding_resume(ram, base.embedding,
                                                  *base.checkpoint, more);
  const auto resumed_spool = train_embedding_resume(spooled, base.embedding,
                                                    *base.checkpoint, more);
  fs::remove_all(dir);

  ASSERT_EQ(resumed_spool.stats.epoch_loss, resumed_ram.stats.epoch_loss);
  expect_same_embedding(resumed_ram.embedding, resumed_spool.embedding);
}

TEST(OocStress, ParallelSpoolGenerationIsDeterministic) {
  // Threaded walk generation into the spool (TSan lane): the written
  // spool must not depend on the worker schedule.
  const graph::Graph g = graph::make_ring(80);
  const std::string dir_a = temp_spool_dir() + "_a";
  const std::string dir_b = temp_spool_dir() + "_b";
  walk::WalkConfig config;
  config.walks_per_vertex = 3;
  config.walk_length = 15;
  config.grain = 5;
  config.threads = 4;
  config.spool_dir = dir_a;
  (void)walk::generate_corpus_spooled(g, config, 55);
  config.threads = 1;
  config.spool_dir = dir_b;
  (void)walk::generate_corpus_spooled(g, config, 55);

  const auto a = walk::SpooledCorpus::open(dir_a);
  const auto b = walk::SpooledCorpus::open(dir_b);
  ASSERT_EQ(a.walk_count(), b.walk_count());
  ASSERT_EQ(a.token_count(), b.token_count());
  for (std::size_t i = 0; i < a.walk_count(); ++i) {
    const auto wa = a.walk(i);
    const auto wb = b.walk(i);
    ASSERT_EQ(0, std::memcmp(wa.data(), wb.data(),
                             wa.size() * sizeof(graph::VertexId)));
  }
  EXPECT_EQ(a.vertex_frequencies(g.vertex_count()),
            b.vertex_frequencies(g.vertex_count()));
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

TEST(OocStress, HogwildTrainsFromSharedSpool) {
  // Multi-threaded SGD over the shared mmap'd corpus (TSan lane): reads
  // of the spool must be race-free even while syn0/syn1 race by design.
  const graph::Graph g = graph::make_ring(60);
  const std::string dir = temp_spool_dir();
  walk::WalkConfig walk_config = ring_walks(dir);
  walk_config.threads = 4;
  (void)walk::generate_corpus_spooled(g, walk_config, 21);
  const walk::SpooledCorpus spooled = walk::SpooledCorpus::open(dir);

  TrainConfig config;
  config.dimensions = 8;
  config.epochs = 2;
  config.seed = 2;
  config.threads = 4;
  const auto result = train_embedding(spooled, g.vertex_count(), config);
  fs::remove_all(dir);
  EXPECT_EQ(result.embedding.vertex_count(), g.vertex_count());
  for (const double loss : result.stats.epoch_loss) {
    EXPECT_TRUE(std::isfinite(loss));
  }
}

}  // namespace
}  // namespace v2v::embed
