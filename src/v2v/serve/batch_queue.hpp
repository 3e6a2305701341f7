#pragma once

// Batching admission queue: the stage between the socket layer and the
// QueryEngine (docs/ARCHITECTURE.md "Serving layer").
//
// Concurrent callers submit() single queries; a dedicated dispatcher
// thread coalesces whatever is queued into one QueryEngine::query_batch
// call — up to `max_batch` requests, taken the moment the dispatcher is
// free. There is no timed wait: a lone request dispatches at once, and
// under load a batch is whatever queued while the previous batch ran
// ("smart batching", M. Thompson, Mechanical Sympathy, 2011), so batches
// grow exactly when the engine is the bottleneck. Coalescing turns N
// concurrent socket reads into one fan-out over the engine's pool, whose
// first chunk runs on the dispatcher itself.
//
// Contracts the rest of the serving layer relies on:
//
//   Exactness   A request answered kOk carries exactly the neighbors a
//               direct VectorIndex::search(query, k) would return,
//               bit-identical distances included. Batching changes
//               scheduling, never results: query_batch computes each row
//               independently, and a batch is searched at the largest k
//               it contains, each result then truncated to its own k —
//               a top-k list's length-k' prefix IS the top-k' list,
//               because result order (distance, id) is a total order
//               independent of k.
//   Deadlines   Every request carries one (0 = config default; capped by
//               nothing else). Expired requests are answered kTimeout —
//               without touching the engine when the deadline passed
//               while queued; after the batch returns, a request whose
//               deadline passed during execution is also kTimeout, so
//               the caller can trust that kOk implies "within deadline".
//   Backpressure submit() never blocks and the queue never grows past
//               `queue_capacity`: beyond it, requests are rejected
//               immediately with kOverloaded (+ retry_after_ms hint at
//               the protocol layer) rather than queue-building into
//               latency collapse.
//   Shutdown    shutdown() stops admission (kShuttingDown), then drains:
//               every request admitted before the stop executes and gets
//               its real answer. No accepted request is ever dropped.
//
// Thread-safety: submit()/depth() are safe from any thread, concurrently
// with shutdown(). The returned future is fulfilled exactly once, by the
// dispatcher (or inline on rejection).
//
// Metrics (when config.metrics is wired):
//   serve.requests              admitted requests
//   serve.rejected_queue_full   kOverloaded rejections
//   serve.rejected_shutdown     kShuttingDown rejections
//   serve.rejected_bad_request  wrong-dims or non-finite-query rejections
//   serve.timeouts              kTimeout responses
//   serve.batches               engine batches dispatched
//   serve.drained_on_shutdown   requests completed after stop was signaled
//   serve.batch_occupancy       histogram: requests per dispatched batch
//   serve.queue_depth           histogram: depth seen at admission
//   serve.latency_us            histogram: submit -> response ready

#include <chrono>
#include <cstddef>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "v2v/common/sync.hpp"
#include "v2v/serve/protocol.hpp"

namespace v2v::obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace v2v::obs

namespace v2v::index {
class QueryEngine;
}  // namespace v2v::index

namespace v2v::serve {

struct BatchQueueConfig {
  /// Most requests coalesced into one engine batch; must be >= 1.
  std::size_t max_batch = 64;
  /// Pending-request bound; submissions beyond it get kOverloaded.
  std::size_t queue_capacity = 4096;
  /// Deadline applied when a request carries none (deadline_ms == 0).
  /// Zero disables deadlines entirely.
  std::chrono::milliseconds default_deadline{1000};
  /// Optional observability sink for the instruments listed above.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Outcome of one request: status plus, for kOk only, the neighbor list.
struct SubmitResult {
  RequestStatus status = RequestStatus::kInternal;
  std::vector<index::Neighbor> neighbors;
};

class BatchQueue {
 public:
  /// The engine (and its index) must outlive the queue. Starts the
  /// dispatcher thread immediately. Throws std::invalid_argument when
  /// config.max_batch is 0.
  explicit BatchQueue(const index::QueryEngine& engine,
                      BatchQueueConfig config = {});
  ~BatchQueue();  ///< shutdown()s if the caller did not

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  /// Admits one query. Never blocks: rejections (wrong dims, a NaN or
  /// infinite component, queue full, shutting down) fulfill the future
  /// immediately. `deadline_ms` 0 means config.default_deadline.
  [[nodiscard]] std::future<SubmitResult> submit(std::vector<float> query,
                                                 std::size_t k,
                                                 std::uint32_t deadline_ms = 0)
      V2V_EXCLUDES(mutex_);

  /// Blocking convenience: submit(...).get().
  [[nodiscard]] SubmitResult query(std::vector<float> query, std::size_t k,
                                   std::uint32_t deadline_ms = 0);

  /// Stops admission, drains every already-admitted request through the
  /// engine, and joins the dispatcher. Idempotent; safe from any thread
  /// (not from inside a request callback, which cannot exist here).
  void shutdown() V2V_EXCLUDES(mutex_, join_mutex_);

  /// Pending (admitted, not yet dispatched) request count.
  [[nodiscard]] std::size_t depth() const V2V_EXCLUDES(mutex_);

  [[nodiscard]] const BatchQueueConfig& config() const noexcept { return config_; }

 private:
  struct Pending {
    std::promise<SubmitResult> promise;
    std::vector<float> query;
    std::size_t k = 0;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point enqueued;
  };

  void dispatcher_loop() V2V_EXCLUDES(mutex_);
  void execute_batch(std::vector<Pending>& batch, bool draining)
      V2V_EXCLUDES(mutex_);
  /// Lock-agnostic: touches only the one Pending (promise + metrics
  /// atomics), so both the locked submit() rejection paths and the
  /// unlocked dispatcher may call it.
  void fulfill(Pending& pending, RequestStatus status,
               std::vector<index::Neighbor> neighbors = {});

  const index::QueryEngine& engine_;
  const BatchQueueConfig config_;
  const std::size_t dims_;

  // Cached instruments (may stay null when metrics are not wired).
  obs::Counter* requests_ = nullptr;
  obs::Counter* rejected_full_ = nullptr;
  obs::Counter* rejected_shutdown_ = nullptr;
  obs::Counter* rejected_bad_ = nullptr;
  obs::Counter* timeouts_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* drained_ = nullptr;
  obs::Histogram* batch_occupancy_ = nullptr;
  obs::Histogram* queue_depth_ = nullptr;
  obs::Histogram* latency_us_ = nullptr;

  mutable Mutex mutex_{"serve.batch_queue", lock_rank::kBatchQueue};
  CondVar cv_;
  std::deque<Pending> queue_ V2V_GUARDED_BY(mutex_);
  bool stopping_ V2V_GUARDED_BY(mutex_) = false;
  /// Serializes concurrent shutdown() joins; never nested inside mutex_.
  Mutex join_mutex_{"serve.batch_queue.join", lock_rank::kBatchQueueJoin};
  std::thread dispatcher_;
};

}  // namespace v2v::serve
