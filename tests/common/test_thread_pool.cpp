#include "v2v/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace v2v {
namespace {

// The pool behind parallel_for_dynamic: who runs a loop's workers, and
// what a throwing chunk or a busy pool thread does to a call.
TEST(ThreadPool, CallerIsWorkerZero) {
  const auto caller = std::this_thread::get_id();
  for (const std::size_t count : {1u, 3u, 100u}) {
    std::vector<std::size_t> worker_of(count);
    std::vector<std::thread::id> ran_on(count);
    parallel_for_dynamic(4, count, 1,
                         [&](std::size_t worker, std::size_t chunk, std::size_t,
                             std::size_t) {
                           worker_of[chunk] = worker;
                           ran_on[chunk] = std::this_thread::get_id();
                         });
    for (std::size_t c = 0; c < count; ++c) {
      EXPECT_EQ(worker_of[c] == 0, ran_on[c] == caller)
          << "count " << count << ", chunk " << c;
    }
  }
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  // The default grain gives each of the 3 items its own chunk.
  std::atomic<int> calls{0};
  parallel_for_dynamic(8, 3, 0,
                       [&](std::size_t worker, std::size_t, std::size_t begin,
                           std::size_t end) {
                         EXPECT_LT(worker, 3u);
                         EXPECT_EQ(end - begin, 1u);
                         calls.fetch_add(1);
                       });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPool, ParallelForIgnoresUnrelatedTasks) {
  // A 4-thread loop whose chunks all block on a gate holds its caller and
  // three pool threads; a second loop must finish without them.
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> blocked{0};
  auto gated = std::async(std::launch::async, [&] {
    parallel_for_dynamic(4, 4, 1, [&](std::size_t, std::size_t, std::size_t, std::size_t) {
      blocked.fetch_add(1);
      gate.wait();
    });
  });
  // The gated caller blocks in its first chunk, so the other three can
  // only start on pool threads.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (blocked.load() < 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(blocked.load(), 4);

  std::atomic<int> chunks{0};
  auto done = std::async(std::launch::async, [&] {
    parallel_for_dynamic(4, 3, 1, [&](std::size_t, std::size_t, std::size_t, std::size_t) {
      chunks.fetch_add(1);
    });
  });
  const auto status = done.wait_for(std::chrono::seconds(5));
  release.set_value();
  done.get();
  gated.get();
  EXPECT_EQ(status, std::future_status::ready);
  EXPECT_EQ(chunks.load(), 3);
}

TEST(ThreadPool, ParallelForRethrowsChunkZeroAfterOtherChunks) {
  std::atomic<int> finished{0};
  EXPECT_THROW(
      parallel_for_dynamic(3, 3, 1,
                           [&](std::size_t, std::size_t chunk, std::size_t, std::size_t) {
                             if (chunk == 0) throw std::runtime_error("chunk 0");
                             std::this_thread::sleep_for(std::chrono::milliseconds(20));
                             finished.fetch_add(1);
                           }),
      std::runtime_error);
  // The other chunks completed before the exception left the call.
  EXPECT_EQ(finished.load(), 2);
}

TEST(ThreadPool, RethrowsThrowFromNonZeroChunkOnCaller) {
  const std::size_t count = 1000, grain = 10;
  const std::size_t last = chunk_count(count, grain) - 1;
  try {
    parallel_for_dynamic(4, count, grain,
                         [&](std::size_t, std::size_t chunk, std::size_t, std::size_t) {
                           if (chunk == last) throw std::runtime_error("last chunk");
                         });
    ADD_FAILURE() << "the throw was lost";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "last chunk");
  }
  // The pool is unharmed: the next call covers every index once.
  std::vector<std::atomic<int>> hits(count);
  parallel_for_dynamic(4, count, grain,
                       [&](std::size_t, std::size_t, std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
                       });
  for (std::size_t i = 0; i < count; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
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

TEST(ParallelForDynamic, CoversEveryChunkExactlyOnce) {
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

TEST(ParallelForDynamic, MoreThreadsThanChunksStillCovers) {
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

}  // namespace
}  // namespace v2v
