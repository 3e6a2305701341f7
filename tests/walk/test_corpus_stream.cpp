// StreamedCorpus contracts: every range of walks it redraws, including
// ranges that start partway through a vertex's walks and empty ranges, is
// the RAM corpus's; its totals, max_token and frequencies are the RAM
// corpus's at any walk thread count; its counting pass records
// generate_corpus's walk telemetry; and with_corpus hands both backings
// the same walks. The CorpusSpoolTest cases keep the names they had when
// the out-of-core corpus was an on-disk spool; the streamed corpus carries
// the same contracts.
#include "v2v/walk/corpus_stream.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "v2v/common/thread_pool.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/graph/graph.hpp"
#include "v2v/obs/metrics.hpp"

namespace v2v::walk {
namespace {

using graph::VertexId;
using Walks = std::vector<std::vector<VertexId>>;

/// A directed graph with dead ends: the cycle 0 -> 1 -> 2 -> 0 leaks
/// through 2 -> 3 into the sink 4; vertex 5 has no out-arcs, so its walks
/// are one token long; 6 -> {7, 4} and 7 -> 6 form a cycle that can fall
/// into the sink too.
graph::Graph dead_end_graph() {
  graph::GraphBuilder builder(true);
  builder.reserve_vertices(8);
  const std::pair<VertexId, VertexId> arcs[] = {
      {0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {6, 7}, {6, 4}, {7, 6}};
  for (const auto& [u, v] : arcs) builder.add_edge(u, v);
  return builder.build();
}

WalkConfig three_walks() {
  WalkConfig config;
  config.walks_per_vertex = 3;
  config.walk_length = 6;
  return config;
}

Walks read(const CorpusReader& reader, std::size_t begin, std::size_t end) {
  Walks walks;
  reader.for_each_walk(begin, end, [&](std::span<const VertexId> walk) {
    walks.emplace_back(walk.begin(), walk.end());
  });
  return walks;
}

Walks ram_walks(const Corpus& corpus, std::size_t begin, std::size_t end) {
  Walks walks;
  for (std::size_t i = begin; i < end; ++i) {
    walks.emplace_back(corpus.walk(i).begin(), corpus.walk(i).end());
  }
  return walks;
}

TEST(CorpusStream, EveryRangeReplaysTheRamCorpus) {
  const graph::Graph g = dead_end_graph();
  const Corpus ram = generate_corpus(g, three_walks(), 11);
  const StreamedCorpus stream(g, three_walks(), 11);
  const std::size_t n = ram.walk_count();
  ASSERT_EQ(n, 24u);
  ASSERT_EQ(stream.walk_count(), n);

  // The graph must produce the walks this test is about.
  bool one_token = false, cut_short = false;
  for (std::size_t i = 0; i < n; ++i) {
    one_token = one_token || ram.walk(i).size() == 1;
    cut_short = cut_short || (ram.walk(i).size() > 1 && ram.walk(i).size() < 6);
  }
  ASSERT_TRUE(one_token);
  ASSERT_TRUE(cut_short);

  // Every [b, e), empty ones included; b % 3 != 0 starts mid-vertex.
  for (std::size_t b = 0; b <= n; ++b) {
    for (std::size_t e = b; e <= n; ++e) {
      const Walks expect = ram_walks(ram, b, e);
      ASSERT_EQ(read(stream, b, e), expect) << "walks [" << b << ", " << e << ")";
      ASSERT_EQ(read(ram, b, e), expect) << "walks [" << b << ", " << e << ")";
    }
  }
}

TEST(CorpusSpoolTest, RoundTripMatchesInMemoryCorpus) {
  const graph::Graph g = graph::make_ring(100);
  WalkConfig config = three_walks();
  config.walk_length = 9;
  config.threads = 2;
  // The default grain, 100 / 2 / 16 = 3, gives several counting-pass
  // chunks per worker and a ragged tail.
  const std::size_t grain = default_grain(g.vertex_count(), config.threads);
  ASSERT_GT(chunk_count(g.vertex_count(), grain), 2 * config.threads);
  ASSERT_NE(g.vertex_count() % grain, 0u);

  const Corpus ram = generate_corpus(g, config, 99);
  const StreamedCorpus stream(g, config, 99);
  EXPECT_EQ(stream.walk_count(), ram.walk_count());
  EXPECT_EQ(stream.token_count(), ram.token_count());
  EXPECT_EQ(stream.max_token(), 99u);
  EXPECT_EQ(read(stream, 0, stream.walk_count()), ram_walks(ram, 0, ram.walk_count()));
  EXPECT_EQ(stream.vertex_frequencies(g.vertex_count()),
            ram.vertex_frequencies(g.vertex_count()));
}

TEST(CorpusSpoolTest, SingletonAndShortWalksSurvive) {
  // Isolated vertices 3..5 walk one token each; the path 0 - 1 - 2 walks
  // the full length. Ragged lengths must come back exactly.
  graph::GraphBuilder builder(false);
  builder.reserve_vertices(6);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  const graph::Graph g = builder.build();

  const Corpus ram = generate_corpus(g, three_walks(), 13);
  const StreamedCorpus stream(g, three_walks(), 13);
  const Walks walks = read(stream, 0, stream.walk_count());
  ASSERT_EQ(walks, ram_walks(ram, 0, ram.walk_count()));
  ASSERT_EQ(walks.size(), 18u);
  for (std::size_t i = 9; i < 18; ++i) EXPECT_EQ(walks[i].size(), 1u) << "walk " << i;
  EXPECT_EQ(walks[0].size(), 6u);
}

TEST(CorpusSpoolTest, InMemoryCorpusAdapterMatchesWrappedCorpus) {
  // Reading the RAM Corpus through the CorpusReader interface must agree
  // with the Corpus itself.
  const graph::Graph g = graph::make_ring(25);
  const Corpus ram = generate_corpus(g, three_walks(), 13);
  const CorpusReader& base = ram;
  EXPECT_EQ(base.walk_count(), ram.walk_count());
  EXPECT_EQ(base.token_count(), ram.token_count());
  EXPECT_EQ(base.max_token(), 24u);
  EXPECT_EQ(base.vertex_frequencies(g.vertex_count()),
            ram.vertex_frequencies(g.vertex_count()));
  EXPECT_EQ(read(base, 0, base.walk_count()), ram_walks(ram, 0, ram.walk_count()));
  const Corpus empty;
  const CorpusReader& empty_reader = empty;
  EXPECT_EQ(empty_reader.max_token(), 0u);
  EXPECT_EQ(empty_reader.token_count(), 0u);
  EXPECT_TRUE(read(empty_reader, 0, 0).empty());
}

TEST(CorpusStream, TotalsMatchTheRamCorpusAtAnyWalkThreadCount) {
  const graph::Graph g = dead_end_graph();
  for (const std::size_t threads : {1u, 4u}) {
    WalkConfig config = three_walks();
    config.threads = threads;
    const Corpus ram = generate_corpus(g, config, 5);
    const StreamedCorpus stream(g, config, 5);
    EXPECT_EQ(stream.walk_count(), ram.walk_count()) << threads << " threads";
    EXPECT_EQ(stream.token_count(), ram.token_count()) << threads << " threads";
    EXPECT_EQ(stream.max_token(), ram.max_token()) << threads << " threads";
    // Frequency queries clamp to the requested vocab on both backings.
    for (const std::size_t vocab : {g.vertex_count(), std::size_t{3}, std::size_t{100}}) {
      EXPECT_EQ(stream.vertex_frequencies(vocab), ram.vertex_frequencies(vocab))
          << threads << " threads, vocab " << vocab;
    }
  }
}

TEST(CorpusStream, EmptyGraphStreamsNothing) {
  const graph::Graph empty;
  const StreamedCorpus stream(empty, three_walks(), 1);
  EXPECT_EQ(stream.walk_count(), 0u);
  EXPECT_EQ(stream.token_count(), 0u);
  EXPECT_EQ(stream.max_token(), 0u);
  EXPECT_TRUE(read(stream, 0, 0).empty());
  EXPECT_EQ(stream.vertex_frequencies(2), (std::vector<std::uint64_t>{0, 0}));
}

TEST(CorpusStream, CountingPassRecordsTheWalkTelemetry) {
  const graph::Graph g = dead_end_graph();
  obs::MetricsRegistry ram_metrics, stream_metrics;
  WalkConfig config = three_walks();
  config.metrics = &ram_metrics;
  (void)generate_corpus(g, config, 3);
  config.metrics = &stream_metrics;
  const StreamedCorpus stream(g, config, 3);
  const auto ram = ram_metrics.snapshot();
  const auto streamed = stream_metrics.snapshot();
  EXPECT_EQ(streamed.counters, ram.counters);
  for (const char* gauge : {"walk.grain", "walk.chunks", "walk.shard_imbalance"}) {
    EXPECT_EQ(streamed.gauges.at(gauge), ram.gauges.at(gauge)) << gauge;
  }
  ASSERT_EQ(streamed.stages.children.size(), 1u);
  EXPECT_EQ(streamed.stages.children[0].name, "walk");
  // Redrawing walks records nothing more.
  (void)read(stream, 0, stream.walk_count());
  EXPECT_EQ(stream_metrics.snapshot().counters, ram.counters);
}

TEST(CorpusStream, WithCorpusHandsBothBackingsTheSameWalks) {
  const graph::Graph g = dead_end_graph();
  WalkConfig config = three_walks();
  Walks walks[2];
  CorpusRun runs[2];
  for (const bool streaming : {false, true}) {
    config.streaming = streaming;
    runs[streaming] = with_corpus(g, config, 8, [&](const CorpusReader& corpus) {
      walks[streaming] = read(corpus, 0, corpus.walk_count());
    });
  }
  EXPECT_EQ(walks[1], walks[0]);
  EXPECT_EQ(runs[1].walks, runs[0].walks);
  EXPECT_EQ(runs[1].tokens, runs[0].tokens);
  EXPECT_EQ(runs[0].walks, 24u);
}

}  // namespace
}  // namespace v2v::walk
