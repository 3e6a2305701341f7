#include "v2v/serve/batch_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "v2v/common/matrix.hpp"
#include "v2v/index/query_engine.hpp"
#include "v2v/obs/metrics.hpp"

namespace v2v::serve {

namespace {
// Same latency bucket layout as query.latency_us so serve-side and
// engine-side histograms line up bin for bin in dashboards.
constexpr obs::HistogramConfig kLatencyBuckets{0.0, 20000.0, 256};
}  // namespace

BatchQueue::BatchQueue(const index::QueryEngine& engine, BatchQueueConfig config)
    : engine_(engine),
      config_(config),
      dims_(engine.index().dimensions()) {
  if (config_.max_batch == 0) {
    throw std::invalid_argument("serve::BatchQueue: max_batch must be at least 1");
  }
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    requests_ = &m.counter("serve.requests");
    rejected_full_ = &m.counter("serve.rejected_queue_full");
    rejected_shutdown_ = &m.counter("serve.rejected_shutdown");
    rejected_bad_ = &m.counter("serve.rejected_bad_request");
    timeouts_ = &m.counter("serve.timeouts");
    batches_ = &m.counter("serve.batches");
    drained_ = &m.counter("serve.drained_on_shutdown");
    batch_occupancy_ = &m.histogram(
        "serve.batch_occupancy",
        {0.0, static_cast<double>(config_.max_batch),
         std::min<std::size_t>(config_.max_batch, 128)});
    queue_depth_ = &m.histogram(
        "serve.queue_depth",
        {0.0,
         static_cast<double>(std::max<std::size_t>(1, config_.queue_capacity)),
         128});
    latency_us_ = &m.histogram("serve.latency_us", kLatencyBuckets);
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

BatchQueue::~BatchQueue() { shutdown(); }

void BatchQueue::fulfill(Pending& pending, RequestStatus status,
                         std::vector<index::Neighbor> neighbors) {
  if (latency_us_ != nullptr && status != RequestStatus::kOverloaded &&
      status != RequestStatus::kShuttingDown &&
      status != RequestStatus::kBadRequest) {
    const auto waited = std::chrono::steady_clock::now() - pending.enqueued;
    latency_us_->record(
        std::chrono::duration<double, std::micro>(waited).count());
  }
  pending.promise.set_value({status, std::move(neighbors)});
}

std::future<SubmitResult> BatchQueue::submit(std::vector<float> query,
                                             std::size_t k,
                                             std::uint32_t deadline_ms) {
  Pending pending;
  pending.query = std::move(query);
  pending.k = k;
  pending.enqueued = std::chrono::steady_clock::now();
  auto future = pending.promise.get_future();

  // NaN breaks the (distance, id) order the index sorts by, and an
  // infinite component yields NaN or infinite distances.
  if (pending.query.size() != dims_ ||
      !std::all_of(pending.query.begin(), pending.query.end(),
                   [](float x) { return std::isfinite(x); })) {
    if (rejected_bad_ != nullptr) rejected_bad_->add(1);
    fulfill(pending, RequestStatus::kBadRequest);
    return future;
  }
  const auto deadline =
      deadline_ms != 0
          ? std::chrono::milliseconds(deadline_ms)
          : std::chrono::duration_cast<std::chrono::milliseconds>(
                config_.default_deadline);
  pending.has_deadline = deadline.count() > 0;
  if (pending.has_deadline) pending.deadline = pending.enqueued + deadline;

  {
    const LockGuard lock(mutex_);
    if (stopping_) {
      if (rejected_shutdown_ != nullptr) rejected_shutdown_->add(1);
      fulfill(pending, RequestStatus::kShuttingDown);
      return future;
    }
    if (queue_.size() >= config_.queue_capacity) {
      if (rejected_full_ != nullptr) rejected_full_->add(1);
      fulfill(pending, RequestStatus::kOverloaded);
      return future;
    }
    if (queue_depth_ != nullptr) {
      queue_depth_->record(static_cast<double>(queue_.size()));
    }
    if (requests_ != nullptr) requests_->add(1);
    queue_.push_back(std::move(pending));
  }
  cv_.notify_one();
  return future;
}

SubmitResult BatchQueue::query(std::vector<float> query, std::size_t k,
                               std::uint32_t deadline_ms) {
  return submit(std::move(query), k, deadline_ms).get();
}

std::size_t BatchQueue::depth() const {
  const LockGuard lock(mutex_);
  return queue_.size();
}

void BatchQueue::dispatcher_loop() {
  std::vector<Pending> batch;
  for (;;) {
    bool draining = false;
    {
      UniqueLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and fully drained
      draining = stopping_;
      // Work-conserving: take what queued while the last batch ran.
      const std::size_t take = std::min(queue_.size(), config_.max_batch);
      batch.clear();
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    execute_batch(batch, draining);
  }
}

void BatchQueue::execute_batch(std::vector<Pending>& batch, bool draining) {
  const auto now = std::chrono::steady_clock::now();
  // Expired-in-queue requests answer kTimeout without engine work; the
  // rest form the actual engine batch.
  std::vector<std::size_t> live;
  live.reserve(batch.size());
  std::size_t kmax = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].has_deadline && now >= batch[i].deadline) {
      if (timeouts_ != nullptr) timeouts_->add(1);
      fulfill(batch[i], RequestStatus::kTimeout);
      continue;
    }
    kmax = std::max(kmax, batch[i].k);
    live.push_back(i);
  }
  if (live.empty()) return;

  if (batches_ != nullptr) batches_->add(1);
  if (batch_occupancy_ != nullptr) {
    batch_occupancy_->record(static_cast<double>(live.size()));
  }

  MatrixF queries(live.size(), dims_);
  for (std::size_t row = 0; row < live.size(); ++row) {
    const std::vector<float>& q = batch[live[row]].query;
    std::copy(q.begin(), q.end(), queries.row(row).begin());
  }
  // One engine call at the batch's largest k; per-request truncation
  // below preserves exactness (see the header's Exactness contract).
  auto results = engine_.query_batch(queries, kmax);

  const auto finished = std::chrono::steady_clock::now();
  for (std::size_t row = 0; row < live.size(); ++row) {
    Pending& pending = batch[live[row]];
    if (pending.has_deadline && finished >= pending.deadline) {
      if (timeouts_ != nullptr) timeouts_->add(1);
      fulfill(pending, RequestStatus::kTimeout);
      continue;
    }
    auto& neighbors = results[row];
    if (neighbors.size() > pending.k) neighbors.resize(pending.k);
    if (draining && drained_ != nullptr) drained_->add(1);
    fulfill(pending, RequestStatus::kOk, std::move(neighbors));
  }
}

void BatchQueue::shutdown() {
  {
    const LockGuard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Serialize the join so concurrent shutdown() calls are safe.
  const LockGuard join_lock(join_mutex_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

}  // namespace v2v::serve
