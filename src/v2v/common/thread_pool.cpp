#include "v2v/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "v2v/common/aligned.hpp"
#include "v2v/common/sync.hpp"

namespace v2v {
namespace {

using ChunkFn =
    std::function<void(std::size_t, std::size_t, std::size_t, std::size_t)>;

struct alignas(kCacheLineBytes) PaddedCounter {
  std::atomic<std::size_t> next{0};
};

/// One parallel_for_dynamic call, on its caller's stack. The fields from
/// `next_worker` on are read and written only under the pool mutex.
struct Loop {
  const ChunkFn& fn;
  std::size_t count;
  std::size_t grain;
  std::size_t chunks;
  std::size_t workers;
  std::unique_ptr<PaddedCounter[]> counters;  ///< one per home range
  std::size_t next_worker = 1;  ///< the next worker index a pool thread claims
  std::size_t inside = 0;       ///< pool threads that claimed one and run
  std::exception_ptr error{};   ///< the first exception a chunk threw
  CondVar left{};               ///< `inside` reached 0

  /// Range r owns chunk indices [range_begin(r), range_begin(r + 1)): the
  /// smallest c with c*workers/chunks == r is ceil(r*chunks/workers).
  [[nodiscard]] std::size_t range_begin(std::size_t r) const noexcept {
    return (r * chunks + workers - 1) / workers;
  }
};

/// The process-wide pool. It starts threads only when a loop needs more
/// workers than it has, keeps them until exit, and lets idle ones sleep
/// on `wake_`.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    std::vector<std::thread> threads;
    {
      const LockGuard lock(mutex_);
      stopping_ = true;
      threads.swap(threads_);
    }
    wake_.notify_all();
    for (auto& t : threads) t.join();
  }

  /// Offers workers 1 … W − 1 of `loop` to the pool, runs worker 0 on the
  /// calling thread, then withdraws the unclaimed workers and waits for
  /// the pool threads inside the loop.
  void run(Loop& loop) V2V_EXCLUDES(mutex_) {
    {
      const LockGuard lock(mutex_);
      while (threads_.size() < loop.workers - 1) {
        threads_.emplace_back([this] { serve(); });
      }
      open_.push_back(&loop);
    }
    for (std::size_t w = 1; w < loop.workers; ++w) wake_.notify_one();
    work(loop, 0);
    {
      UniqueLock lock(mutex_);
      // Worker 0 leaves only once every chunk is claimed, so a worker
      // index nobody has taken would find nothing left.
      std::erase(open_, &loop);
      while (loop.inside != 0) loop.left.wait(lock);
    }
    if (loop.error) std::rethrow_exception(loop.error);
  }

 private:
  /// Worker `worker` drains its home range, then steals from the others.
  void work(Loop& loop, std::size_t worker) V2V_EXCLUDES(mutex_) {
    for (std::size_t offset = 0; offset < loop.workers; ++offset) {
      const std::size_t r = (worker + offset) % loop.workers;
      const std::size_t lo = loop.range_begin(r);
      const std::size_t len = loop.range_begin(r + 1) - lo;
      for (;;) {
        const std::size_t i = loop.counters[r].next.fetch_add(1, std::memory_order_relaxed);
        if (i >= len) break;
        const std::size_t c = lo + i;
        try {
          loop.fn(worker, c, c * loop.grain, std::min(loop.count, (c + 1) * loop.grain));
        } catch (...) {
          const LockGuard lock(mutex_);
          if (!loop.error) loop.error = std::current_exception();
        }
      }
    }
  }

  /// A pool thread: claims the next free worker index of the oldest open
  /// loop, runs it, and sleeps while no loop is open.
  void serve() V2V_EXCLUDES(mutex_) {
    for (;;) {
      Loop* loop = nullptr;
      std::size_t worker = 0;
      {
        UniqueLock lock(mutex_);
        while (!stopping_ && open_.empty()) wake_.wait(lock);
        if (stopping_) return;
        loop = open_.front();
        worker = loop->next_worker++;
        if (loop->next_worker == loop->workers) open_.erase(open_.begin());
        ++loop->inside;
      }
      work(*loop, worker);
      // Notify under the mutex: the caller destroys the loop as soon as it
      // can retake the mutex and read `inside == 0`.
      const LockGuard lock(mutex_);
      if (--loop->inside == 0) loop->left.notify_one();
    }
  }

  Mutex mutex_{"common.thread_pool", lock_rank::kThreadPool};
  CondVar wake_;  ///< a loop opened, or the pool is stopping
  std::vector<Loop*> open_ V2V_GUARDED_BY(mutex_);  ///< loops with unclaimed workers
  bool stopping_ V2V_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_ V2V_GUARDED_BY(mutex_);
};

}  // namespace

std::size_t default_grain(std::size_t count, std::size_t threads) noexcept {
  // count / threads / 16 == count / (threads * 16), without the product's
  // overflow for absurd thread counts; 0 threads counts as 1.
  return std::max<std::size_t>(1, count / std::max<std::size_t>(1, threads) / 16);
}

std::size_t chunk_count(std::size_t count, std::size_t grain) noexcept {
  if (count == 0) return 0;
  if (grain == 0) grain = 1;
  return (count + grain - 1) / grain;
}

void parallel_for_dynamic(std::size_t threads, std::size_t count, std::size_t grain,
                          const ChunkFn& fn) {
  if (count == 0) return;
  if (grain == 0) grain = default_grain(count, threads);
  const std::size_t chunks = chunk_count(count, grain);
  const std::size_t workers = std::min(threads, chunks);
  if (workers <= 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      fn(0, c, c * grain, std::min(count, (c + 1) * grain));
    }
    return;
  }
  Loop loop{fn, count, grain, chunks, workers,
            std::make_unique<PaddedCounter[]>(workers)};
  Pool::instance().run(loop);
}

}  // namespace v2v
