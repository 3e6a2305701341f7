// BatchQueue contracts: exactness vs direct search (bit-identical),
// per-request k truncation inside a coalesced batch, the max_batch >= 1
// precondition, deadline expiry in the queue (no engine work), queue-full
// backpressure, and the shutdown-drains-everything guarantee. The
// deterministic scheduling tests use GateIndex, a VectorIndex whose
// search blocks on a gate, so "request is inside the engine" and
// "requests are parked in the queue" are explicit states instead of
// sleeps.
#include "v2v/serve/batch_queue.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/index/flat_index.hpp"
#include "v2v/index/query_engine.hpp"
#include "v2v/obs/metrics.hpp"

namespace v2v::serve {
namespace {

MatrixF random_points(std::size_t n, std::size_t d, std::uint64_t seed) {
  MatrixF points(n, d);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c) {
      points(i, c) = static_cast<float>(rng.next_gaussian());
    }
  }
  return points;
}

/// Test double: every search blocks until open() and counts its entries.
/// Results are deterministic fakes (id == rank, distance == rank), or the
/// answers of a wrapped index.
class GateIndex final : public index::VectorIndex {
 public:
  GateIndex(std::size_t size, std::size_t dims) : size_(size), dims_(dims) {}
  explicit GateIndex(const index::VectorIndex& inner)
      : size_(inner.size()), dims_(inner.dimensions()), inner_(&inner) {}

  [[nodiscard]] std::size_t size() const noexcept override { return size_; }
  [[nodiscard]] std::size_t dimensions() const noexcept override { return dims_; }
  [[nodiscard]] index::DistanceMetric metric() const noexcept override {
    return inner_ != nullptr ? inner_->metric() : index::DistanceMetric::kEuclidean;
  }

  void search_into(std::span<const float> query, std::size_t k,
                   std::vector<index::Neighbor>& out) const override {
    {
      std::unique_lock lock(mutex_);
      ++entered_;
      entered_cv_.notify_all();
      gate_cv_.wait(lock, [&] { return open_; });
    }
    if (inner_ != nullptr) {
      inner_->search_into(query, k, out);
      return;
    }
    out.clear();
    for (std::size_t i = 0; i < std::min(k, size_); ++i) {
      out.push_back({static_cast<std::uint32_t>(i), static_cast<double>(i)});
    }
  }

  double warm_rows(std::size_t, std::size_t) const override { return 0.0; }

  void open() {
    std::lock_guard lock(mutex_);
    open_ = true;
    gate_cv_.notify_all();
  }

  /// Blocks until at least `count` searches have entered the gate.
  void wait_entered(std::size_t count) const {
    std::unique_lock lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= count; });
  }

  [[nodiscard]] std::size_t entered() const {
    std::lock_guard lock(mutex_);
    return entered_;
  }

 private:
  const std::size_t size_;
  const std::size_t dims_;
  const index::VectorIndex* inner_ = nullptr;
  mutable std::mutex mutex_;
  mutable std::condition_variable gate_cv_;
  mutable std::condition_variable entered_cv_;
  mutable std::size_t entered_ = 0;
  bool open_ = false;
};

TEST(ServeBatchQueue, OkResultsAreBitIdenticalToDirectSearch) {
  const MatrixF points = random_points(80, 6, 1);
  const index::FlatIndex flat(store::EmbeddingView::of(points));
  const index::QueryEngine engine(flat, {.threads = 2, .metrics = nullptr});
  BatchQueue queue(engine);

  const MatrixF queries = random_points(12, 6, 2);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto row = queries.row(q);
    const auto result =
        queue.query(std::vector<float>(row.begin(), row.end()), 5);
    ASSERT_EQ(result.status, RequestStatus::kOk);
    const auto direct = flat.search(row, 5);
    ASSERT_EQ(result.neighbors.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(result.neighbors[i].id, direct[i].id);
      EXPECT_EQ(std::memcmp(&result.neighbors[i].distance, &direct[i].distance,
                            sizeof(double)),
                0);
    }
  }
}

TEST(ServeBatchQueue, CoalescedBatchTruncatesToEachRequestsK) {
  const MatrixF points = random_points(60, 4, 3);
  const index::FlatIndex flat(store::EmbeddingView::of(points));
  GateIndex gate(flat);
  const index::QueryEngine engine(gate, {.threads = 1, .metrics = nullptr});
  obs::MetricsRegistry metrics;
  BatchQueueConfig config;
  config.metrics = &metrics;
  BatchQueue queue(engine, config);

  // The first request holds the dispatcher inside the engine, so the next
  // four queue behind it and leave together as the second batch.
  auto first = queue.submit({0.0f, 0.0f, 0.0f, 0.0f}, 2);
  gate.wait_entered(1);
  const MatrixF queries = random_points(4, 4, 4);
  const std::size_t ks[] = {1, 3, 5, 9};
  std::vector<std::future<SubmitResult>> futures;
  for (std::size_t q = 0; q < 4; ++q) {
    const auto row = queries.row(q);
    futures.push_back(
        queue.submit(std::vector<float>(row.begin(), row.end()), ks[q]));
  }
  EXPECT_EQ(queue.depth(), 4u);
  gate.open();

  EXPECT_EQ(first.get().status, RequestStatus::kOk);
  for (std::size_t q = 0; q < 4; ++q) {
    const auto result = futures[q].get();
    ASSERT_EQ(result.status, RequestStatus::kOk);
    // The batch ran at k = 9; each answer is exactly its own direct top-k
    // (the prefix property the batching design leans on).
    const auto direct = flat.search(queries.row(q), ks[q]);
    ASSERT_EQ(result.neighbors.size(), ks[q]);
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(result.neighbors[i].id, direct[i].id);
      EXPECT_EQ(std::memcmp(&result.neighbors[i].distance, &direct[i].distance,
                            sizeof(double)),
                0);
    }
  }
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.requests"), 5u);
  EXPECT_EQ(snap.counters.at("serve.batches"), 2u);
  const auto& occupancy = snap.histograms.at("serve.batch_occupancy");
  EXPECT_EQ(occupancy.count, 2u);
  EXPECT_EQ(occupancy.max, 4.0);
}

TEST(ServeBatchQueue, ZeroMaxBatchIsRejected) {
  // A zero batch bound could never take a request: every future would
  // hang and shutdown() would never join.
  const MatrixF points = random_points(10, 3, 8);
  const index::FlatIndex flat(store::EmbeddingView::of(points));
  const index::QueryEngine engine(flat, {.threads = 1, .metrics = nullptr});
  BatchQueueConfig config;
  config.max_batch = 0;
  EXPECT_THROW(BatchQueue(engine, config), std::invalid_argument);
  config.max_batch = 1;
  BatchQueue queue(engine, config);
  EXPECT_EQ(queue.query({0.0f, 1.0f, 2.0f}, 2).status, RequestStatus::kOk);
}

TEST(ServeBatchQueue, WrongDimensionsRejectedBadRequest) {
  const MatrixF points = random_points(10, 5, 5);
  const index::FlatIndex flat(store::EmbeddingView::of(points));
  const index::QueryEngine engine(flat, {.threads = 1, .metrics = nullptr});
  obs::MetricsRegistry metrics;
  BatchQueueConfig config;
  config.metrics = &metrics;
  BatchQueue queue(engine, config);

  const auto result = queue.query({1.0f, 2.0f}, 3);  // index dims = 5
  EXPECT_EQ(result.status, RequestStatus::kBadRequest);
  EXPECT_TRUE(result.neighbors.empty());
  EXPECT_EQ(metrics.snapshot().counters.at("serve.rejected_bad_request"), 1u);
}

TEST(ServeBatchQueue, NonFiniteComponentsRejectedBadRequest) {
  const MatrixF points = random_points(10, 3, 6);
  const index::FlatIndex flat(store::EmbeddingView::of(points));
  const index::QueryEngine engine(flat, {.threads = 1, .metrics = nullptr});
  obs::MetricsRegistry metrics;
  BatchQueueConfig config;
  config.metrics = &metrics;
  BatchQueue queue(engine, config);

  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const float bad :
       {std::numeric_limits<float>::quiet_NaN(), kInf, -kInf}) {
    const auto result = queue.query({0.5f, bad, 1.0f}, 3);
    EXPECT_EQ(result.status, RequestStatus::kBadRequest) << bad;
    EXPECT_TRUE(result.neighbors.empty());
  }
  // The largest finite float is still a valid component.
  EXPECT_EQ(queue.query({std::numeric_limits<float>::max(), 0.0f, 1.0f}, 3).status,
            RequestStatus::kOk);
  const auto counters = metrics.snapshot().counters;
  EXPECT_EQ(counters.at("serve.rejected_bad_request"), 3u);
  EXPECT_EQ(counters.at("serve.requests"), 1u);
}

TEST(ServeBatchQueue, DeadlineExpiredInQueueSkipsEngine) {
  GateIndex gate(20, 3);
  const index::QueryEngine engine(gate, {.threads = 1, .metrics = nullptr});
  obs::MetricsRegistry metrics;
  BatchQueueConfig config;
  config.max_batch = 1;  // the second request must wait for the first
  config.metrics = &metrics;
  BatchQueue queue(engine, config);

  auto first = queue.submit({0.0f, 0.0f, 0.0f}, 2);
  gate.wait_entered(1);  // first is inside the engine, holding the dispatcher
  auto second = queue.submit({1.0f, 1.0f, 1.0f}, 2, /*deadline_ms=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.open();

  EXPECT_EQ(first.get().status, RequestStatus::kOk);
  EXPECT_EQ(second.get().status, RequestStatus::kTimeout);
  // The expired request never reached the index.
  EXPECT_EQ(gate.entered(), 1u);
  EXPECT_EQ(metrics.snapshot().counters.at("serve.timeouts"), 1u);
}

TEST(ServeBatchQueue, FullQueueRejectsOverloadedWithoutBlocking) {
  GateIndex gate(20, 2);
  const index::QueryEngine engine(gate, {.threads = 1, .metrics = nullptr});
  obs::MetricsRegistry metrics;
  BatchQueueConfig config;
  config.max_batch = 1;
  config.queue_capacity = 2;
  config.metrics = &metrics;
  BatchQueue queue(engine, config);

  auto in_engine = queue.submit({0.0f, 0.0f}, 1);
  gate.wait_entered(1);  // dispatcher is busy; everything below stays queued
  auto queued1 = queue.submit({1.0f, 1.0f}, 1);
  auto queued2 = queue.submit({2.0f, 2.0f}, 1);
  auto rejected = queue.submit({3.0f, 3.0f}, 1);
  // The rejection is immediate — the future is already resolved.
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(rejected.get().status, RequestStatus::kOverloaded);

  gate.open();
  EXPECT_EQ(in_engine.get().status, RequestStatus::kOk);
  EXPECT_EQ(queued1.get().status, RequestStatus::kOk);
  EXPECT_EQ(queued2.get().status, RequestStatus::kOk);
  EXPECT_EQ(metrics.snapshot().counters.at("serve.rejected_queue_full"), 1u);
}

TEST(ServeBatchQueue, ShutdownDrainsEveryAdmittedRequest) {
  GateIndex gate(20, 2);
  const index::QueryEngine engine(gate, {.threads = 1, .metrics = nullptr});
  obs::MetricsRegistry metrics;
  BatchQueueConfig config;
  config.max_batch = 1;
  config.default_deadline = std::chrono::milliseconds(0);  // no deadlines
  config.metrics = &metrics;
  BatchQueue queue(engine, config);

  std::vector<std::future<SubmitResult>> admitted;
  admitted.push_back(queue.submit({0.0f, 0.0f}, 1));
  gate.wait_entered(1);
  for (int i = 0; i < 4; ++i) {
    admitted.push_back(queue.submit({1.0f, 1.0f}, 1));
  }

  std::thread stopper([&] { queue.shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.open();
  stopper.join();

  for (auto& future : admitted) {
    EXPECT_EQ(future.get().status, RequestStatus::kOk);
  }
  // Admission is closed after shutdown.
  EXPECT_EQ(queue.query({2.0f, 2.0f}, 1).status, RequestStatus::kShuttingDown);
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.requests"), 5u);
  EXPECT_EQ(snap.counters.at("serve.rejected_shutdown"), 1u);
  EXPECT_GE(snap.counters.at("serve.drained_on_shutdown"), 1u);
}

TEST(ServeBatchQueue, ZeroDefaultDeadlineDisablesTimeouts) {
  GateIndex gate(10, 2);
  const index::QueryEngine engine(gate, {.threads = 1, .metrics = nullptr});
  BatchQueueConfig config;
  config.default_deadline = std::chrono::milliseconds(0);
  BatchQueue queue(engine, config);

  auto future = queue.submit({0.0f, 0.0f}, 3);
  gate.wait_entered(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  gate.open();
  const auto result = future.get();
  EXPECT_EQ(result.status, RequestStatus::kOk);
  EXPECT_EQ(result.neighbors.size(), 3u);
}

}  // namespace
}  // namespace v2v::serve
