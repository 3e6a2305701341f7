// NUMA layer tests: topology detection overrides, the chunk-to-node
// split, first-touch placement safety, and — the load-bearing property —
// bit-identical chunk handout from the node-preferring queue.
#include "v2v/common/numa.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "v2v/common/thread_pool.hpp"

namespace v2v::numa {
namespace {

TEST(Numa, DetectTopologyNeverReturnsZeroNodes) {
  const Topology topo = detect_topology();
  EXPECT_GE(topo.node_count(), 1u);
}

TEST(Numa, EnvDisableForcesSingleNode) {
  ::setenv("V2V_NUMA", "0", 1);
  const Topology topo = detect_topology();
  ::unsetenv("V2V_NUMA");
  EXPECT_EQ(topo.node_count(), 1u);
  EXPECT_FALSE(topo.multi_node());
}

TEST(Numa, FakeNodesEnvBuildsSyntheticTopology) {
  ::setenv("V2V_NUMA_FAKE_NODES", "4", 1);
  const Topology topo = detect_topology();
  ::unsetenv("V2V_NUMA_FAKE_NODES");
  EXPECT_EQ(topo.node_count(), 4u);
  EXPECT_TRUE(topo.synthetic);
  EXPECT_TRUE(topo.multi_node());
  for (const auto& cpus : topo.node_cpus) EXPECT_TRUE(cpus.empty());
  // Synthetic nodes have no cpu lists, so the schedule must not try to
  // pin workers.
  const NumaSchedule sched = schedule(topo);
  EXPECT_EQ(sched.ranges, 4u);
  EXPECT_FALSE(static_cast<bool>(sched.bind_worker));
}

TEST(Numa, BogusFakeNodesEnvIsIgnored) {
  for (const char* bogus : {"0", "-3", "banana", "1025"}) {
    ::setenv("V2V_NUMA_FAKE_NODES", bogus, 1);
    const Topology topo = detect_topology();
    EXPECT_FALSE(topo.synthetic) << "V2V_NUMA_FAKE_NODES=" << bogus;
  }
  ::unsetenv("V2V_NUMA_FAKE_NODES");
}

TEST(Numa, NodeOfChunkInvertsTheContiguousSplit) {
  // node_of_chunk must agree with the queue's range split: node n owns
  // chunks [ceil(n*chunks/nodes'), ceil((n+1)*chunks/nodes')).
  for (const std::size_t nodes : {1u, 2u, 3u, 5u, 8u}) {
    for (const std::size_t chunks : {1u, 2u, 5u, 7u, 16u, 33u}) {
      const auto range_begin = [&](std::size_t n) {
        return (n * chunks + nodes - 1) / nodes;
      };
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t n = node_of_chunk(c, chunks, nodes);
        ASSERT_LT(n, nodes);
        ASSERT_GE(c, range_begin(n)) << c << "/" << chunks << " x " << nodes;
        ASSERT_LT(c, range_begin(n + 1)) << c << "/" << chunks << " x " << nodes;
      }
    }
  }
}

TEST(Numa, NodeOfWorkerSplitsWorkersIntoContiguousGroups) {
  // floor(w * N / W): contiguous groups whose sizes differ by at most one.
  EXPECT_EQ((std::vector<std::size_t>{0, 0, 1, 1}),
            (std::vector<std::size_t>{node_of_worker(0, 4, 2), node_of_worker(1, 4, 2),
                                      node_of_worker(2, 4, 2), node_of_worker(3, 4, 2)}));
  EXPECT_EQ((std::vector<std::size_t>{0, 0, 1}),
            (std::vector<std::size_t>{node_of_worker(0, 3, 2), node_of_worker(1, 3, 2),
                                      node_of_worker(2, 3, 2)}));
  std::vector<std::size_t> eight;
  for (std::size_t w = 0; w < 8; ++w) eight.push_back(node_of_worker(w, 8, 3));
  EXPECT_EQ(eight, (std::vector<std::size_t>{0, 0, 0, 1, 1, 1, 2, 2}));
  EXPECT_EQ(node_of_worker(5, 8, 1), 0u);  // single node
}

TEST(Numa, WorkerScheduleGivesEveryWorkerItsOwnRange) {
  Topology fake;
  fake.node_cpus.assign(2, {});
  fake.synthetic = true;
  const NumaSchedule sched = worker_schedule(fake, 5);
  EXPECT_EQ(sched.ranges, 5u);
  // Synthetic nodes have no cpus to pin to.
  EXPECT_FALSE(static_cast<bool>(sched.bind_worker));
  EXPECT_EQ(worker_schedule(fake, 0).ranges, 1u);
}

TEST(Numa, BindCurrentThreadIsSafeForAnyNode) {
  const Topology topo = detect_topology();
  // Advisory best-effort call: must not crash for real or synthetic
  // topologies, including out-of-range nodes.
  bind_current_thread(topo, 0);
  Topology fake;
  fake.node_cpus.assign(3, {});
  fake.synthetic = true;
  bind_current_thread(fake, 2);
}

TEST(Numa, FirstTouchStripesPreservesZeroContents) {
  Topology fake;
  fake.node_cpus.assign(3, {});
  fake.synthetic = true;
  // Deliberately not page-aligned in size: the helper must handle ragged
  // edges by touching only the aligned interior.
  std::vector<float> buffer(100003, 0.0f);
  first_touch_stripes(buffer.data(), buffer.size() * sizeof(float), fake);
  for (const float v : buffer) ASSERT_EQ(v, 0.0f);
  // Single-node and empty-buffer calls are no-ops.
  first_touch_stripes(buffer.data(), buffer.size() * sizeof(float),
                      Topology{});
  first_touch_stripes(nullptr, 0, fake);
}

TEST(ParallelForNuma, CoversEveryChunkExactlyOnce) {
  const std::size_t count = 1003, grain = 17;
  const std::size_t chunks = chunk_count(count, grain);
  std::vector<std::atomic<int>> hits(chunks);
  NumaSchedule sched;
  sched.ranges = 3;
  parallel_for_dynamic(4, count, grain, sched,
                       [&](std::size_t /*worker*/, std::size_t chunk,
                           std::size_t begin, std::size_t end) {
                         EXPECT_EQ(begin, chunk * grain);
                         EXPECT_EQ(end, std::min(count, (chunk + 1) * grain));
                         hits[chunk].fetch_add(1, std::memory_order_relaxed);
                       });
  for (std::size_t c = 0; c < chunks; ++c) {
    ASSERT_EQ(hits[c].load(), 1) << "chunk " << c;
  }
}

TEST(ParallelForNuma, PerChunkResultsMatchPlainQueue) {
  // The node-preferring queue may reorder chunk *claiming*, but every
  // chunk must receive identical (chunk, begin, end) arguments — the
  // basis of the pipeline's bit-identical-results guarantee.
  const std::size_t count = 517, grain = 13;
  const std::size_t chunks = chunk_count(count, grain);
  auto run = [&](const NumaSchedule* sched, std::size_t threads) {
    std::vector<std::uint64_t> digest(chunks, 0);
    const auto fn = [&](std::size_t /*worker*/, std::size_t chunk,
                        std::size_t begin, std::size_t end) {
      std::uint64_t h = 1469598103934665603ULL;
      for (std::size_t i = begin; i < end; ++i) h = (h ^ i) * 1099511628211ULL;
      digest[chunk] = h ^ (begin << 20) ^ end;
    };
    if (sched != nullptr) {
      parallel_for_dynamic(threads, count, grain, *sched, fn);
    } else {
      parallel_for_dynamic(threads, count, grain, fn);
    }
    return digest;
  };
  const auto plain = run(nullptr, 1);
  for (const std::size_t nodes : {1u, 2u, 4u, 7u}) {
    NumaSchedule sched;
    sched.ranges = nodes;
    EXPECT_EQ(run(&sched, 4), plain) << nodes << " nodes";
    EXPECT_EQ(run(&sched, 1), plain) << nodes << " nodes, single worker";
  }
}

TEST(ParallelForNuma, MoreNodesThanChunksStillCovers) {
  NumaSchedule sched;
  sched.ranges = 16;
  std::vector<std::atomic<int>> hits(2);
  parallel_for_dynamic(4, 20, 10, sched,
                       [&](std::size_t, std::size_t chunk, std::size_t,
                           std::size_t) {
                         hits[chunk].fetch_add(1, std::memory_order_relaxed);
                       });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST(ParallelForNuma, ZeroCountRunsNothing) {
  NumaSchedule sched;
  sched.ranges = 4;
  bool ran = false;
  parallel_for_dynamic(4, 0, 8, sched,
                       [&](std::size_t, std::size_t, std::size_t,
                           std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace v2v::numa
