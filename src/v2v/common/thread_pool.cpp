#include "v2v/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "v2v/common/aligned.hpp"

namespace v2v {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    LockGuard lock(mutex_);
    tasks_.push({std::move(task), nullptr});
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  UniqueLock lock(mutex_);
  while (in_flight_ != 0) idle_.wait(lock);
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t chunks = std::min(count, size());
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  // The first `extra` chunks carry one item more than the rest.
  const auto chunk_begin = [base, extra](std::size_t c) {
    return c * base + std::min(c, extra);
  };
  if (chunks == 1) {
    fn(0, 0, count);
    return;
  }

  // Written by workers under mutex_; the call returns only once it reads 0.
  std::size_t open_chunks = chunks - 1;
  {
    const LockGuard lock(mutex_);
    for (std::size_t c = 1; c < chunks; ++c) {
      tasks_.push({[&fn, c, begin = chunk_begin(c), end = chunk_begin(c + 1)] {
                     fn(c, begin, end);
                   },
                   &open_chunks});
      ++in_flight_;
    }
  }
  for (std::size_t c = 1; c < chunks; ++c) task_ready_.notify_one();

  // Queued chunks reference fn and open_chunks on this frame, so a throw
  // from chunk 0 must wait for them before unwinding.
  std::exception_ptr error;
  try {
    fn(0, 0, chunk_begin(1));
  } catch (...) {
    error = std::current_exception();
  }
  {
    UniqueLock lock(mutex_);
    while (open_chunks != 0) chunk_done_.wait(lock);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      UniqueLock lock(mutex_);
      while (!stopping_ && tasks_.empty()) task_ready_.wait(lock);
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task.run();
    {
      LockGuard lock(mutex_);
      if (task.open_chunks != nullptr && --*task.open_chunks == 0) {
        chunk_done_.notify_all();
      }
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

void parallel_for_once(
    std::size_t threads, std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t chunks = std::min(count, threads);
  if (chunks <= 1) {
    fn(0, 0, count);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(chunks);
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    const std::size_t end = begin + len;
    pool.emplace_back([&fn, c, begin, end] { fn(c, begin, end); });
    begin = end;
  }
  for (auto& t : pool) t.join();
}

std::size_t default_grain(std::size_t count, std::size_t threads) noexcept {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // count / threads / 16 == count / (threads * 16), without the product's
  // overflow for absurd thread counts.
  return std::max<std::size_t>(1, count / threads / 16);
}

std::size_t chunk_count(std::size_t count, std::size_t grain) noexcept {
  if (count == 0) return 0;
  if (grain == 0) grain = 1;
  return (count + grain - 1) / grain;
}

void parallel_for_dynamic(
    std::size_t threads, std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (grain == 0) grain = default_grain(count, threads);
  const std::size_t chunks = chunk_count(count, grain);
  const std::size_t workers = std::min(threads, chunks);
  if (workers <= 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      fn(0, c, c * grain, std::min(count, (c + 1) * grain));
    }
    return;
  }

  // Range r owns chunk indices [range_begin(r), range_begin(r + 1)):
  // the smallest c with c*workers/chunks == r is ceil(r*chunks/workers).
  const auto range_begin = [chunks, workers](std::size_t r) {
    return (r * chunks + workers - 1) / workers;
  };
  struct alignas(kCacheLineBytes) PaddedCounter {
    std::atomic<std::size_t> next{0};
  };
  const auto counters = std::make_unique<PaddedCounter[]>(workers);

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t offset = 0; offset < workers; ++offset) {
        const std::size_t r = (w + offset) % workers;
        const std::size_t lo = range_begin(r);
        const std::size_t len = range_begin(r + 1) - lo;
        for (;;) {
          const std::size_t i =
              counters[r].next.fetch_add(1, std::memory_order_relaxed);
          if (i >= len) break;
          const std::size_t c = lo + i;
          fn(w, c, c * grain, std::min(count, (c + 1) * grain));
        }
      }
    });
  }
  for (auto& t : pool) t.join();
}

}  // namespace v2v
