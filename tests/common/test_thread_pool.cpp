#include "v2v/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace v2v {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroThreadsUsesHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksArePartition) {
  ThreadPool pool(3);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(3, {0, 0});
  pool.parallel_for(10, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
    ranges[chunk] = {begin, end};
  });
  std::size_t total = 0;
  for (const auto& [b, e] : ranges) total += e - b;
  EXPECT_EQ(total, 10u);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};
  pool.parallel_for(3, [&](std::size_t, std::size_t begin, std::size_t end) {
    EXPECT_EQ(end - begin, 1u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPool, ParallelForRunsChunkZeroOnCaller) {
  ThreadPool pool(4);
  for (const std::size_t count : {1u, 3u, 100u}) {
    std::vector<std::thread::id> ran(std::min<std::size_t>(count, pool.size()));
    pool.parallel_for(count, [&](std::size_t chunk, std::size_t, std::size_t) {
      ran[chunk] = std::this_thread::get_id();
    });
    EXPECT_EQ(ran[0], std::this_thread::get_id()) << "count " << count;
    for (std::size_t c = 1; c < ran.size(); ++c) {
      EXPECT_NE(ran[c], std::this_thread::get_id()) << "chunk " << c;
    }
  }
}

TEST(ThreadPool, ParallelForIgnoresUnrelatedTasks) {
  ThreadPool pool(4);
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  pool.submit([gate] { gate.wait(); });  // holds one worker until released

  // Three free workers and the caller are plenty for three chunks; the
  // call must not wait for the gated task.
  std::atomic<int> chunks{0};
  auto done = std::async(std::launch::async, [&] {
    pool.parallel_for(3, [&](std::size_t, std::size_t, std::size_t) {
      chunks.fetch_add(1);
    });
  });
  const auto status = done.wait_for(std::chrono::seconds(5));
  release.set_value();
  done.get();
  EXPECT_EQ(status, std::future_status::ready);
  EXPECT_EQ(chunks.load(), 3);
  pool.wait_idle();
}

TEST(ThreadPool, ParallelForRethrowsChunkZeroAfterOtherChunks) {
  ThreadPool pool(3);
  std::atomic<int> finished{0};
  EXPECT_THROW(
      pool.parallel_for(3,
                        [&](std::size_t chunk, std::size_t, std::size_t) {
                          if (chunk == 0) throw std::runtime_error("chunk 0");
                          std::this_thread::sleep_for(std::chrono::milliseconds(20));
                          finished.fetch_add(1);
                        }),
      std::runtime_error);
  // The worker chunks completed before the exception left parallel_for.
  EXPECT_EQ(finished.load(), 2);
}

TEST(ThreadPool, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ParallelForOnce, CoversRangeExactly) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for_once(4, 500, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForOnce, SingleThreadRunsInline) {
  std::size_t covered = 0;
  parallel_for_once(1, 42, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
    EXPECT_EQ(chunk, 0u);
    covered += end - begin;
  });
  EXPECT_EQ(covered, 42u);
}

TEST(ParallelForOnce, SumMatchesSerial) {
  std::vector<long> partial(8, 0);
  parallel_for_once(8, 10000, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
    long sum = 0;
    for (std::size_t i = begin; i < end; ++i) sum += static_cast<long>(i);
    partial[chunk] = sum;
  });
  const long total = std::accumulate(partial.begin(), partial.end(), 0L);
  EXPECT_EQ(total, 10000L * 9999L / 2L);
}

TEST(ParallelForDynamic, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for_dynamic(4, 500, 7,
                       [&](std::size_t, std::size_t, std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
                       });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForDynamic, PerChunkDigestMatchesOneWorker) {
  // Workers claim chunks in a different order at every thread count, but
  // each chunk must see the same (chunk, begin, end): the basis of the
  // pipeline's bit-identical results across thread counts.
  const std::size_t count = 517, grain = 13;
  const auto digest = [&](std::size_t threads) {
    std::vector<std::uint64_t> out(chunk_count(count, grain), 0);
    parallel_for_dynamic(
        threads, count, grain,
        [&](std::size_t, std::size_t chunk, std::size_t begin, std::size_t end) {
          std::uint64_t h = 1469598103934665603ULL;
          for (std::size_t i = begin; i < end; ++i) h = (h ^ i) * 1099511628211ULL;
          out[chunk] = h ^ (begin << 20) ^ end;
        });
    return out;
  };
  const auto serial = digest(1);
  for (const std::size_t threads : {2u, 4u, 7u}) {
    EXPECT_EQ(digest(threads), serial) << threads << " threads";
  }
}

TEST(ParallelForDynamic, EachWorkerStartsAtItsHomeRange) {
  // Range r of W owns chunks [ceil(r*C/W), ceil((r+1)*C/W)). Every worker
  // holds its first chunk until all W workers hold one, so none can drain
  // its range and steal early: worker w's first chunk is then the first
  // chunk of range w.
  const std::size_t count = 1003, grain = 17, threads = 4;
  const std::size_t chunks = chunk_count(count, grain);
  std::vector<std::size_t> first(threads, chunks);
  std::atomic<std::size_t> arrived{0};
  // The deadline turns a handout that starves a worker into a failure
  // below instead of a hang.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  parallel_for_dynamic(threads, count, grain,
                       [&](std::size_t worker, std::size_t chunk, std::size_t,
                           std::size_t) {
                         if (first[worker] != chunks) return;
                         first[worker] = chunk;
                         arrived.fetch_add(1);
                         while (arrived.load() < threads &&
                                std::chrono::steady_clock::now() < deadline) {
                           std::this_thread::yield();
                         }
                       });
  for (std::size_t w = 0; w < threads; ++w) {
    EXPECT_EQ(first[w], (w * chunks + threads - 1) / threads) << "worker " << w;
  }
}

TEST(ParallelForDynamic, ChunkIndexDeterminesRange) {
  // Chunk boundaries must be a pure function of (count, grain), whatever
  // worker picks the chunk up.
  const std::size_t count = 103, grain = 10;
  std::vector<std::pair<std::size_t, std::size_t>> ranges(chunk_count(count, grain));
  parallel_for_dynamic(
      3, count, grain,
      [&](std::size_t, std::size_t chunk, std::size_t begin, std::size_t end) {
        ranges[chunk] = {begin, end};
      });
  ASSERT_EQ(ranges.size(), 11u);
  for (std::size_t c = 0; c < ranges.size(); ++c) {
    EXPECT_EQ(ranges[c].first, c * grain);
    EXPECT_EQ(ranges[c].second, std::min(count, (c + 1) * grain));
  }
}

TEST(ParallelForDynamic, SingleWorkerRunsChunksInOrder) {
  std::vector<std::size_t> order;
  parallel_for_dynamic(1, 25, 4,
                       [&](std::size_t worker, std::size_t chunk, std::size_t,
                           std::size_t) {
                         EXPECT_EQ(worker, 0u);
                         order.push_back(chunk);
                       });
  ASSERT_EQ(order.size(), 7u);
  for (std::size_t c = 0; c < order.size(); ++c) EXPECT_EQ(order[c], c);
}

TEST(ParallelForDynamic, ZeroCountIsNoop) {
  bool called = false;
  parallel_for_dynamic(2, 0, 5,
                       [&](std::size_t, std::size_t, std::size_t, std::size_t) {
                         called = true;
                       });
  EXPECT_FALSE(called);
}

TEST(ParallelForDynamic, ZeroGrainPicksDefault) {
  std::atomic<std::size_t> covered{0};
  parallel_for_dynamic(2, 1000, 0,
                       [&](std::size_t, std::size_t, std::size_t begin, std::size_t end) {
                         covered.fetch_add(end - begin);
                       });
  EXPECT_EQ(covered.load(), 1000u);
}

TEST(ParallelForDynamic, GrainHelpers) {
  EXPECT_EQ(default_grain(0, 4), 1u);
  EXPECT_EQ(default_grain(6400, 4), 100u);
  EXPECT_GE(default_grain(10, 0), 1u);
  EXPECT_EQ(default_grain(6400, std::size_t{1} << 60), 1u);  // threads * 16 wraps to 0
  EXPECT_EQ(chunk_count(0, 5), 0u);
  EXPECT_EQ(chunk_count(10, 5), 2u);
  EXPECT_EQ(chunk_count(11, 5), 3u);
  EXPECT_EQ(chunk_count(7, 0), 7u);  // grain 0 treated as 1
}

// The ParallelForNuma suite is named for the per-node range schedule it
// was written against; that one-range-per-worker handout is now
// parallel_for_dynamic's only one.
TEST(ParallelForNuma, CoversEveryChunkExactlyOnce) {
  // 1,003 items at grain 17 make 59 chunks, which no worker count here
  // divides, so the home ranges are ragged.
  const std::size_t count = 1003, grain = 17;
  const std::size_t chunks = chunk_count(count, grain);
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 7u}) {
    std::vector<std::atomic<int>> hits(chunks);
    parallel_for_dynamic(
        threads, count, grain,
        [&](std::size_t worker, std::size_t chunk, std::size_t begin, std::size_t end) {
          EXPECT_LT(worker, threads);
          EXPECT_EQ(begin, chunk * grain);
          EXPECT_EQ(end, std::min(count, (chunk + 1) * grain));
          hits[chunk].fetch_add(1, std::memory_order_relaxed);
        });
    for (std::size_t c = 0; c < chunks; ++c) {
      ASSERT_EQ(hits[c].load(), 1) << threads << " threads, chunk " << c;
    }
  }
}

TEST(ParallelForNuma, MoreNodesThanChunksStillCovers) {
  // 2 chunks for 16 threads: only two workers may run, one per range.
  std::vector<std::atomic<int>> hits(2);
  parallel_for_dynamic(16, 20, 10,
                       [&](std::size_t worker, std::size_t chunk, std::size_t,
                           std::size_t) {
                         EXPECT_LT(worker, 2u);
                         hits[chunk].fetch_add(1, std::memory_order_relaxed);
                       });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST(ParallelForNuma, ZeroCountRunsNothing) {
  bool ran = false;
  parallel_for_dynamic(16, 0, 8,
                       [&](std::size_t, std::size_t, std::size_t,
                           std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace v2v
