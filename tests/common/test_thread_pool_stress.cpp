// Concurrency stress for the worker pool behind parallel_for_dynamic:
// concurrent callers, loops nested inside chunks, and thread reuse across
// many calls. These suites run under ThreadSanitizer in CI (tsan preset)
// so the pool's hand-off and exit accounting get real contention to
// expose races.
#include "v2v/common/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <functional>
#include <set>
#include <thread>
#include <vector>

namespace v2v {
namespace {

TEST(ThreadPoolStress, ConcurrentExternalSubmitters) {
  // Two threads call at 4 threads at the same time, many times over.
  constexpr std::size_t kItems = 257;  // deliberately not divisible by 4
  constexpr int kRounds = 200;
  const auto caller = [](std::vector<int>& hits) {
    for (int round = 0; round < kRounds; ++round) {
      parallel_for_dynamic(4, kItems, 0,
                           [&](std::size_t, std::size_t, std::size_t begin, std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) ++hits[i];
                           });
    }
  };
  std::vector<int> hits_a(kItems, 0);
  std::vector<int> hits_b(kItems, 0);
  std::thread a(caller, std::ref(hits_a));
  std::thread b(caller, std::ref(hits_b));
  a.join();
  b.join();
  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits_a[i], kRounds) << "index " << i;
    ASSERT_EQ(hits_b[i], kRounds) << "index " << i;
  }
}

TEST(ThreadPoolStress, NestedSubmitFromWorker) {
  // A 4-thread loop inside every chunk of a 4-thread loop: the inner
  // calls find the pool's threads busy and must still finish.
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 300;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel_for_dynamic(4, kOuter, 1,
                       [&](std::size_t, std::size_t outer, std::size_t, std::size_t) {
                         parallel_for_dynamic(
                             4, kInner, 0,
                             [&](std::size_t, std::size_t, std::size_t begin,
                                 std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i) {
                                 hits[outer * kInner + i].fetch_add(1);
                               }
                             });
                       });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolStress, RepeatedParallelForReusesWorkers) {
  // 1,000 four-thread calls run on the caller and the pool's persistent
  // threads, never on a thread started for one call: at most 16 kernel
  // thread ids, the most threads any test asks for.
  constexpr std::size_t kChunks = 64;
  std::set<pid_t> tids;
  for (int call = 0; call < 1000; ++call) {
    std::vector<pid_t> ran_on(kChunks);
    parallel_for_dynamic(4, kChunks, 1,
                         [&](std::size_t, std::size_t chunk, std::size_t, std::size_t) {
                           ran_on[chunk] = gettid();
                         });
    tids.insert(ran_on.begin(), ran_on.end());
  }
  EXPECT_LE(tids.size(), 16u);
}

}  // namespace
}  // namespace v2v
