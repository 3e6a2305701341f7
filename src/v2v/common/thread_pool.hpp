// Minimal work-sharing thread pool with a blocking parallel_for (the
// caller runs chunk 0 itself and waits only for its own chunks), plus a
// chunked work queue (`parallel_for_dynamic`) used by corpus generation,
// Hogwild SGD, k-means and the index builds. Static block partitioning
// (`parallel_for_once`) serializes a whole block behind its slowest items;
// the dynamic loop splits [0, count) into fixed grain-sized chunks that
// each worker drains from its own contiguous home range before stealing
// from the others, so heavy-degree vertices no longer stall an epoch.
// Chunk boundaries depend only on (count, grain) — never on scheduling —
// so callers that store results per chunk index stay deterministic across
// thread counts.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "v2v/common/sync.hpp"

namespace v2v {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; runs on some worker eventually.
  void submit(std::function<void()> task) V2V_EXCLUDES(mutex_);

  /// Blocks until all submitted tasks have completed.
  void wait_idle() V2V_EXCLUDES(mutex_);

  /// Runs fn(chunk_index, begin, end) over [0, count) split into
  /// min(count, size()) contiguous chunks, blocking until every chunk is
  /// done. Chunk 0 runs on the calling thread and the rest on workers, so
  /// a one-chunk call never leaves the caller. The call waits for its own
  /// chunks only, never for unrelated submit()ted tasks or concurrent
  /// parallel_for calls. fn must be safe to call concurrently from
  /// distinct threads; if chunk 0 throws, the exception is rethrown after
  /// the other chunks finish.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn)
      V2V_EXCLUDES(mutex_);

 private:
  /// A queued unit of work. `open_chunks` is the owning parallel_for's
  /// count of unfinished worker chunks (null for submit()); workers
  /// decrement it under mutex_.
  struct Task {
    std::function<void()> run;
    std::size_t* open_chunks = nullptr;
  };

  void worker_loop() V2V_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_{"common.thread_pool", lock_rank::kThreadPool};
  CondVar task_ready_;
  CondVar idle_;        ///< in_flight_ reached 0
  CondVar chunk_done_;  ///< some parallel_for's open_chunks reached 0
  std::queue<Task> tasks_ V2V_GUARDED_BY(mutex_);
  std::size_t in_flight_ V2V_GUARDED_BY(mutex_) = 0;
  bool stopping_ V2V_GUARDED_BY(mutex_) = false;
};

/// Convenience: one-shot parallel loop using a transient set of threads.
/// For hot loops, reuse a ThreadPool instead.
void parallel_for_once(std::size_t threads, std::size_t count,
                       const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Heuristic chunk size for parallel_for_dynamic: aim for ~16 chunks per
/// worker (cheap enough to rebalance, coarse enough to amortize the
/// counter), never below 1. `threads == 0` means hardware concurrency.
[[nodiscard]] std::size_t default_grain(std::size_t count, std::size_t threads) noexcept;

/// Number of chunks a dynamic loop over `count` items produces with
/// `grain` items per chunk (the final chunk may be short).
[[nodiscard]] std::size_t chunk_count(std::size_t count, std::size_t grain) noexcept;

/// Chunked work queue. Splits [0, count) into fixed chunks — chunk c
/// covers [c*grain, min((c+1)*grain, count)) — and runs them on W =
/// min(threads, chunks) workers, calling fn(worker, chunk, begin, end)
/// with worker < W. Chunk indices are a pure function of (count, grain),
/// so per-chunk result storage is deterministic no matter how chunks land
/// on workers. grain == 0 selects default_grain(); threads == 0 means
/// hardware concurrency. With one worker, chunks run in increasing order
/// on the calling thread.
///
/// Handout: range r of W owns chunks [ceil(r*C/W), ceil((r+1)*C/W)) of
/// the C chunks behind its own cache-line-padded counter. Worker w drains
/// range w first (as word2vec splits its training file per thread), then
/// steals from ranges w+1, w+2, ... mod W, so concurrent workers start far
/// apart in the chunk order and share no counter until they steal.
void parallel_for_dynamic(
    std::size_t threads, std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t, std::size_t)>& fn);

}  // namespace v2v
