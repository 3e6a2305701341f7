// Parallel alias-table construction: biased walkers must be byte-identical
// no matter how many threads built their tables, and the build time must
// surface through the metrics registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/common/thread_pool.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/walk/walker.hpp"

namespace v2v::walk {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

/// Weighted graph with enough vertices that the dynamic queue actually
/// splits the alias build into multiple chunks.
Graph weighted_graph(std::size_t n) {
  GraphBuilder builder(false);
  Rng rng(123);
  for (std::size_t v = 0; v < n; ++v) {
    builder.add_edge(static_cast<VertexId>(v), static_cast<VertexId>((v + 1) % n),
                     1.0 + rng.next_double() * 4.0);
    builder.add_edge(static_cast<VertexId>(v),
                     static_cast<VertexId>((v * 7 + 3) % n),
                     0.5 + rng.next_double());
  }
  return builder.build();
}

TEST(WalkerAlias, ParallelBuildIsDeterministic) {
  const Graph g = weighted_graph(200);
  WalkConfig config;
  config.walks_per_vertex = 2;
  config.walk_length = 12;
  config.bias = StepBias::kEdgeWeight;
  // 4 threads split the 200 tables into several chunks per worker.
  ASSERT_GT(chunk_count(g.vertex_count(), default_grain(g.vertex_count(), 4)), 4u);

  config.threads = 1;
  const Corpus serial = generate_corpus(g, config, 11);
  config.threads = 4;
  const Corpus parallel = generate_corpus(g, config, 11);

  ASSERT_EQ(serial.walk_count(), parallel.walk_count());
  for (std::size_t w = 0; w < serial.walk_count(); ++w) {
    const auto a = serial.walk(w);
    const auto b = parallel.walk(w);
    ASSERT_EQ(a.size(), b.size()) << "walk " << w;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "walk " << w;
  }
}

TEST(WalkerAlias, BuildTimeIsRecorded) {
  const Graph g = weighted_graph(64);
  obs::MetricsRegistry metrics;
  WalkConfig config;
  config.bias = StepBias::kVertexWeight;
  config.threads = 2;
  config.metrics = &metrics;
  const Walker walker(g, config);
  const auto snap = metrics.snapshot();
  ASSERT_TRUE(snap.gauges.count("walk.alias_build_seconds"));
  EXPECT_GE(snap.gauges.at("walk.alias_build_seconds"), 0.0);
}

TEST(WalkerAlias, UniformWalkerRecordsNoAliasGauge) {
  const Graph g = weighted_graph(16);
  obs::MetricsRegistry metrics;
  WalkConfig config;  // kUniform: no alias tables, no gauge
  config.metrics = &metrics;
  const Walker walker(g, config);
  EXPECT_EQ(metrics.snapshot().gauges.count("walk.alias_build_seconds"), 0u);
}

}  // namespace
}  // namespace v2v::walk
