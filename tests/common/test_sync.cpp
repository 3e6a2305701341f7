// The annotated sync layer (common/sync.hpp): wrapper semantics in every
// build, and — in checked builds — the lockdep lock-order validator. The
// death tests are the acceptance gate for the checked presets: a seeded
// A->B / B->A inversion must abort with both witness stacks even though a
// single-threaded run never actually deadlocks.
#include "v2v/common/sync.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace v2v {
namespace {

TEST(Sync, LockGuardProtectsSharedCounter) {
  Mutex mutex;
  int counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        const LockGuard lock(mutex);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, 4000);
}

TEST(Sync, TryLockReportsContention) {
  Mutex mutex;
  ASSERT_TRUE(mutex.try_lock());
  std::thread other([&] { EXPECT_FALSE(mutex.try_lock()); });
  other.join();
  mutex.unlock();
  ASSERT_TRUE(mutex.try_lock());
  mutex.unlock();
}

TEST(Sync, CondVarHandsOffThroughExplicitLoop) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  int observed = 0;
  std::thread waiter([&] {
    UniqueLock lock(mutex);
    while (!ready) cv.wait(lock);
    observed = 42;
  });
  {
    const LockGuard lock(mutex);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  EXPECT_EQ(observed, 42);
}

TEST(Sync, UniqueLockRelockCycle) {
  Mutex mutex;
  UniqueLock lock(mutex);
  EXPECT_TRUE(lock.owns_lock());
  lock.unlock();
  EXPECT_FALSE(lock.owns_lock());
  lock.lock();
  EXPECT_TRUE(lock.owns_lock());
}

// Instance identity, not name/address identity: destroying a mutex must
// drop its edges, so a recycled address or a re-registered (same-rank)
// name cannot manufacture a phantom inversion.
TEST(Sync, DestroyAndReuseDoesNotFalsePositive) {
  {
    Mutex a("test.sync.reuse_a", 1000);
    Mutex b("test.sync.reuse_b", 1001);
    const LockGuard la(a);
    const LockGuard lb(b);
  }
  {
    // Same names, same ranks, fresh instances: the old a->b edge is gone,
    // so using only b is clean, and so is the a->b order again.
    Mutex a("test.sync.reuse_a", 1000);
    Mutex b("test.sync.reuse_b", 1001);
    const LockGuard lb(b);
  }
  SUCCEED();
}

#if V2V_LOCKDEP_ENABLED

TEST(Sync, LockdepIsActiveInCheckedBuilds) {
  EXPECT_EQ(V2V_LOCKDEP_ENABLED, 1);
}

void run_inversion() {
  // Unranked so the cycle detector, not rank enforcement, must fire.
  Mutex a;
  Mutex b;
  {
    const LockGuard la(a);
    const LockGuard lb(b);  // records a -> b
  }
  const LockGuard lb(b);
  const LockGuard la(a);  // closes the cycle: b -> a
}

TEST(SyncDeathTest, LockOrderInversionAbortsWithBothWitnessStacks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Both witness stacks must be in the report: the current acquisition
  // and the recorded edge that the new edge contradicts.
  EXPECT_DEATH(run_inversion(),
               "lock-order inversion(.|\n)*witness stack: current "
               "acquisition(.|\n)*acquired before(.|\n)*witness stack: "
               "recorded by");
}

TEST(SyncDeathTest, RankOrderViolationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex outer("test.sync.rank_outer", 2000);
        Mutex inner("test.sync.rank_inner", 2001);
        const LockGuard li(inner);
        const LockGuard lo(outer);  // rank decreases while held: violation
      },
      "rank-order violation");
}

TEST(SyncDeathTest, RankReRegistrationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex first("test.sync.reregister", 3000);
        Mutex second("test.sync.reregister", 3001);
      },
      "rank re-registration for 'test.sync.reregister'");
}

TEST(SyncDeathTest, RecursiveAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mutex;
        mutex.lock();
        mutex.lock();
      },
      "recursive acquisition");
}

TEST(SyncDeathTest, ReleasingUnheldMutexAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mutex;
        mutex.unlock();
      },
      "releasing a mutex not held by this thread");
}

#else

TEST(SyncDeathTest, SkippedInUncheckedBuilds) {
  GTEST_SKIP() << "lockdep is compiled out (V2V_LOCKDEP_ENABLED=0)";
}

#endif  // V2V_LOCKDEP_ENABLED

}  // namespace
}  // namespace v2v
