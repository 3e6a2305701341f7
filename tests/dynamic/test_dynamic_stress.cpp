// Concurrency stress for DynamicGraph: mutators, readers, and a
// compactor hammering one instance. Runs in the TSan CI lane (suite
// filter +Dynamic*); the assertions here are secondary — the point is
// that TSan stays quiet while every public entry point races.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/dynamic/dynamic_graph.hpp"

namespace v2v::dynamic {
namespace {

using graph::VertexId;

TEST(DynamicStress, ConcurrentMutateReadCompact) {
  constexpr std::size_t kVertices = 64;
  constexpr std::size_t kWriters = 3;
  constexpr std::size_t kReaders = 3;
  constexpr std::size_t kOpsPerWriter = 2000;

  DynamicGraph g(false);
  g.reserve_vertices(kVertices);

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders + 1);

  for (std::size_t t = 0; t < kWriters; ++t) {
    threads.emplace_back([&g, t] {
      Rng rng(1000 + t);
      for (std::size_t i = 0; i < kOpsPerWriter; ++i) {
        const auto u = static_cast<VertexId>(rng.next_below(kVertices));
        const auto v = static_cast<VertexId>(rng.next_below(kVertices));
        if (rng.next_below(4) == 0) {
          (void)g.remove_edge(u, v);
        } else {
          g.add_edge(u, v);
        }
      }
    });
  }
  for (std::size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&g, &stop] {
      std::size_t sink = 0;
      for (std::size_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
        sink += g.edge_count() + g.vertex_count();
        // live_edges() copies every record under the lock; one call in 64
        // keeps the writers from starving behind the readers.
        if (i % 64 == 0) sink += g.live_edges().size();
      }
      EXPECT_GE(sink, 0u);
    });
  }
  threads.emplace_back([&g, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)g.compact();
      // Each compaction rebuilds the whole CSR under the lock; pausing
      // between them keeps the writers from starving behind it.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  for (std::size_t t = 0; t < kWriters; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Post-race sanity: the CSR compact() returns still satisfies the
  // bit-identity contract over whatever record order the race produced.
  graph::GraphBuilder replay(false);
  replay.reserve_vertices(g.vertex_count());
  for (const auto& e : g.live_edges()) {
    replay.add_edge(e.u, e.v, e.weight, e.timestamp);
  }
  const auto fresh = replay.build();
  const auto csr = g.compact();
  EXPECT_EQ(csr.arc_count(), fresh.arc_count());
  const auto at = csr.targets(), bt = fresh.targets();
  EXPECT_TRUE(std::equal(at.begin(), at.end(), bt.begin(), bt.end()));
}

TEST(DynamicStress, ConcurrentBatchApplyAndDrain) {
  DynamicGraph g(false);
  g.reserve_vertices(32);
  std::vector<std::thread> threads;
  std::atomic<std::size_t> applied{0};
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&g, &applied, t] {
      Rng rng(t);
      std::vector<EdgeDelta> batch;
      for (std::size_t i = 0; i < 500; ++i) {
        EdgeDelta d;
        d.op = rng.next_below(5) == 0 ? EdgeDelta::Op::kRemove
                                      : EdgeDelta::Op::kInsert;
        d.u = static_cast<VertexId>(rng.next_below(32));
        d.v = static_cast<VertexId>(rng.next_below(32));
        batch.push_back(d);
        if (batch.size() == 50) {
          applied += g.apply(std::span<const EdgeDelta>(batch));
          batch.clear();
        }
      }
      if (!batch.empty()) applied += g.apply(std::span<const EdgeDelta>(batch));
    });
  }
  std::atomic<bool> stop{false};
  std::thread drainer([&g, &stop] {
    std::size_t seen = 0;
    while (!stop.load(std::memory_order_acquire)) {
      seen += g.drain_dirty();
    }
    EXPECT_GE(seen, 0u);
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  drainer.join();
  EXPECT_GT(applied.load(), 0u);
  EXPECT_EQ(g.compact().edge_count(), g.edge_count());
}

}  // namespace
}  // namespace v2v::dynamic
