// Out-of-core training tests: fixed-seed bit-parity between the RAM
// corpus and its StreamedCorpus (the contract of the CorpusReader
// abstraction), plus the OocStress lane the TSan preset picks up for the
// multi-threaded counting pass and Hogwild workers reading one stream.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "v2v/embed/trainer.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/walk/corpus_stream.hpp"
#include "v2v/walk/walker.hpp"

namespace v2v::embed {
namespace {

walk::WalkConfig ring_walks() {
  walk::WalkConfig config;
  config.walks_per_vertex = 4;
  config.walk_length = 20;
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

TEST(TrainerOoc, StreamedTrainingIsBitIdenticalToRam) {
  const graph::Graph g = graph::make_ring(60);
  const walk::Corpus ram = walk::generate_corpus(g, ring_walks(), 77);
  const walk::StreamedCorpus stream(g, ring_walks(), 77);

  TrainConfig config;
  config.dimensions = 12;
  config.epochs = 3;
  config.seed = 9;
  config.threads = 1;  // Hogwild parity holds at one worker
  config.grain = 7;    // chunks start partway through a vertex's 4 walks

  const auto from_ram = train_embedding(ram, g.vertex_count(), config);
  const auto from_stream = train_embedding(stream, g.vertex_count(), config);

  ASSERT_EQ(from_stream.stats.epoch_loss.size(),
            from_ram.stats.epoch_loss.size());
  for (std::size_t e = 0; e < from_ram.stats.epoch_loss.size(); ++e) {
    ASSERT_EQ(from_stream.stats.epoch_loss[e], from_ram.stats.epoch_loss[e])
        << "epoch " << e;
  }
  EXPECT_EQ(from_stream.stats.examples, from_ram.stats.examples);
  expect_same_embedding(from_ram.embedding, from_stream.embedding);
}

TEST(TrainerOoc, SkipGramHierarchicalSoftmaxParity) {
  // The parity contract is backing-agnostic, not architecture-specific:
  // cover the other objective/architecture corner too.
  const graph::Graph g = graph::make_ring(40);
  const walk::Corpus ram = walk::generate_corpus(g, ring_walks(), 31);
  const walk::StreamedCorpus stream(g, ring_walks(), 31);

  TrainConfig config;
  config.dimensions = 8;
  config.epochs = 2;
  config.seed = 4;
  config.architecture = Architecture::kSkipGram;
  config.objective = Objective::kHierarchicalSoftmax;

  const auto from_ram = train_embedding(ram, g.vertex_count(), config);
  const auto from_stream = train_embedding(stream, g.vertex_count(), config);

  ASSERT_EQ(from_stream.stats.epoch_loss, from_ram.stats.epoch_loss);
  expect_same_embedding(from_ram.embedding, from_stream.embedding);
}

TEST(TrainerOoc, ResumeFromStreamMatchesRamResume) {
  const graph::Graph g = graph::make_ring(50);
  const walk::Corpus ram = walk::generate_corpus(g, ring_walks(), 19);
  const walk::StreamedCorpus stream(g, ring_walks(), 19);

  TrainConfig config;
  config.dimensions = 10;
  config.epochs = 2;
  config.seed = 6;
  config.capture_checkpoint = true;
  const auto base = train_embedding(ram, g.vertex_count(), config);
  ASSERT_TRUE(base.checkpoint.has_value());

  TrainConfig more = config;
  more.epochs = 1;
  more.grain = 3;
  const auto resumed_ram = train_embedding_resume(ram, base.embedding,
                                                  *base.checkpoint, more);
  const auto resumed_stream = train_embedding_resume(stream, base.embedding,
                                                     *base.checkpoint, more);

  ASSERT_EQ(resumed_stream.stats.epoch_loss, resumed_ram.stats.epoch_loss);
  expect_same_embedding(resumed_ram.embedding, resumed_stream.embedding);
  EXPECT_EQ(resumed_stream.checkpoint->frequencies,
            resumed_ram.checkpoint->frequencies);
}

TEST(OocStress, ParallelCountingPassIsDeterministic) {
  // The counting pass on 4 walk threads (TSan lane) must not depend on
  // the worker schedule, and the stream it leaves serves the same walks.
  const graph::Graph g = graph::make_ring(80);
  walk::WalkConfig config;
  config.walks_per_vertex = 3;
  config.walk_length = 15;
  config.threads = 4;
  const walk::StreamedCorpus a(g, config, 55);
  config.threads = 1;
  const walk::StreamedCorpus b(g, config, 55);

  ASSERT_EQ(a.walk_count(), b.walk_count());
  ASSERT_EQ(a.token_count(), b.token_count());
  EXPECT_EQ(a.max_token(), b.max_token());
  EXPECT_EQ(a.vertex_frequencies(g.vertex_count()),
            b.vertex_frequencies(g.vertex_count()));
  std::vector<graph::VertexId> tokens_a, tokens_b;
  a.for_each_walk(0, a.walk_count(), [&](std::span<const graph::VertexId> walk) {
    tokens_a.insert(tokens_a.end(), walk.begin(), walk.end());
  });
  b.for_each_walk(0, b.walk_count(), [&](std::span<const graph::VertexId> walk) {
    tokens_b.insert(tokens_b.end(), walk.begin(), walk.end());
  });
  EXPECT_EQ(tokens_a, tokens_b);
}

TEST(OocStress, HogwildTrainsFromSharedStream) {
  // 8 Hogwild workers redraw walks from one StreamedCorpus at once (TSan
  // lane): the reads must be race-free while syn0/syn1 race by design,
  // and every worker must get the walks the RAM corpus holds. The
  // example count depends only on the walks and the chunk streams, not
  // on the racing weights, so it pins what the workers read.
  const graph::Graph g = graph::make_ring(60);
  walk::WalkConfig walk_config = ring_walks();
  walk_config.threads = 4;
  const walk::StreamedCorpus stream(g, walk_config, 21);
  const walk::Corpus ram = walk::generate_corpus(g, walk_config, 21);

  TrainConfig config;
  config.dimensions = 8;
  config.epochs = 2;
  config.seed = 2;
  config.threads = 8;
  const auto result = train_embedding(stream, g.vertex_count(), config);
  EXPECT_EQ(result.embedding.vertex_count(), g.vertex_count());
  for (const double loss : result.stats.epoch_loss) {
    EXPECT_TRUE(std::isfinite(loss));
  }
  EXPECT_EQ(result.stats.examples,
            train_embedding(ram, g.vertex_count(), config).stats.examples);
}

}  // namespace
}  // namespace v2v::embed
