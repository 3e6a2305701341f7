// Spooled RefreshSession contracts: with walk_config.spool_dir set, every
// round spools its corpus to disk and trains from the spool, and every
// observable output (embedding, checkpoint lineage, the round's corpus)
// is bit-identical to the RAM-resident session.
#include "v2v/dynamic/refresh.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "v2v/common/rng.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/walk/corpus_spool.hpp"

namespace v2v::dynamic {
namespace {

namespace fs = std::filesystem;
using graph::VertexId;

std::string temp_spool_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
#if defined(__unix__) || defined(__APPLE__)
  const long uid = static_cast<long>(::getpid());
#else
  const long uid = 0;
#endif
  return (fs::temp_directory_path() /
          ("v2v_refresh_spool_" + std::to_string(uid) + "_" + info->name()))
      .string();
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
    for (std::size_t i = 0; i < va.size(); ++i) {
      ASSERT_EQ(va[i], vb[i]) << "vertex " << v << " component " << i;
    }
  }
}

TEST(DynamicRefreshSpool, BootstrapAndRefreshMatchRamSession) {
  const std::uint64_t master_seed = 29;
  const std::string dir = temp_spool_dir();

  walk::WalkConfig spooled_config = small_walk_config();
  spooled_config.spool_dir = dir;
  RefreshSession spooled(seed_graph(40, 100, 7), spooled_config,
                         small_train_config(), {}, master_seed);
  RefreshSession ram(seed_graph(40, 100, 7), small_walk_config(),
                     small_train_config(), {}, master_seed);
  expect_embeddings_equal(spooled.embedding(), ram.embedding());

  const auto deltas = churn_deltas(40, 10, 500);
  spooled.apply(std::span<const EdgeDelta>(deltas));
  ram.apply(std::span<const EdgeDelta>(deltas));
  (void)spooled.refresh();
  (void)ram.refresh();
  expect_embeddings_equal(spooled.embedding(), ram.embedding());
  // The spool holds the corpus the refresh trained on: the post-delta
  // graph's, not the bootstrap's.
  const auto spool = walk::SpooledCorpus::open(dir);
  const auto full = walk::generate_corpus(ram.graph().base(),
                                          small_walk_config(), ram.walk_seed());
  ASSERT_EQ(spool.walk_count(), full.walk_count());
  for (std::size_t w = 0; w < full.walk_count(); ++w) {
    const auto a = spool.walk(w), b = full.walk(w);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "walk " << w;
  }

  fs::remove_all(dir);
}

TEST(DynamicRefreshSpool, FullRetrainRespools) {
  const std::string dir = temp_spool_dir();
  walk::WalkConfig config = small_walk_config();
  config.spool_dir = dir;
  RefreshSession session(seed_graph(30, 70, 11), config, small_train_config(),
                         {}, 41);
  session.apply(std::span<const EdgeDelta>(churn_deltas(30, 6, 900)));
  const auto stats = session.full_retrain();
  EXPECT_TRUE(stats.full_retrain);
  // A spooled session's full retrain regenerates the spool rather than
  // materializing the corpus.
  EXPECT_TRUE(fs::exists(walk::spool_manifest_path(dir)));

  RefreshSession ram_session(seed_graph(30, 70, 11), small_walk_config(),
                             small_train_config(), {}, 41);
  ram_session.apply(std::span<const EdgeDelta>(churn_deltas(30, 6, 900)));
  const auto ram_stats = ram_session.full_retrain();
  (void)ram_stats;
  expect_embeddings_equal(session.embedding(), ram_session.embedding());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace v2v::dynamic
