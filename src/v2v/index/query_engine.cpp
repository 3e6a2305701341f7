#include "v2v/index/query_engine.hpp"

#include <algorithm>

#include "v2v/common/kernels.hpp"
#include "v2v/common/thread_pool.hpp"
#include "v2v/common/timer.hpp"
#include "v2v/obs/metrics.hpp"

namespace v2v::index {

namespace {
// Latency buckets: 0..20ms in ~78us bins covers flat scans over hundreds
// of thousands of rows; slower queries clamp into the top bin but keep
// exact min/max.
constexpr obs::HistogramConfig kLatencyBuckets{0.0, 20000.0, 256};
}  // namespace

QueryEngine::QueryEngine(const VectorIndex& index, QueryEngineConfig config)
    : index_(index),
      metrics_(config.metrics),
      threads_(std::max<std::size_t>(1, config.threads)) {
  if (metrics_ != nullptr) {
    queries_ = &metrics_->counter("query.queries");
    latency_us_ = &metrics_->histogram("query.latency_us", kLatencyBuckets);
  }
}

void QueryEngine::query_into(std::span<const float> q, std::size_t k,
                             std::vector<Neighbor>& out) const {
  const WallTimer timer;
  index_.search_into(q, k, out);
  if (queries_ != nullptr) {
    queries_->add(1);
    latency_us_->record(timer.seconds() * 1e6);
  }
}

std::vector<Neighbor> QueryEngine::query(std::span<const float> q,
                                         std::size_t k) const {
  std::vector<Neighbor> out;
  query_into(q, k, out);
  return out;
}

template <typename RowAt>
std::vector<std::vector<Neighbor>> QueryEngine::run_batch(
    std::size_t count, std::size_t k, const RowAt& row_at) const {
  std::vector<std::vector<Neighbor>> out(count);
  parallel_for_dynamic(
      threads_, count, 0,
      [&](std::size_t, std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) query_into(row_at(i), k, out[i]);
      });
  return out;
}

std::vector<std::vector<Neighbor>> QueryEngine::query_batch(
    const MatrixF& queries, std::size_t k) const {
  return run_batch(queries.rows(), k,
                   [&](std::size_t i) { return queries.row(i); });
}

std::vector<std::vector<Neighbor>> QueryEngine::query_rows(
    const MatrixF& points, std::span<const std::size_t> rows,
    std::size_t k) const {
  return run_batch(rows.size(), k,
                   [&](std::size_t i) { return points.row(rows[i]); });
}

void QueryEngine::warmup() const {
  const WallTimer timer;
  // Accumulating warm_rows' data-dependent result into an atomic member
  // keeps the row reads observable so they cannot be optimized away.
  parallel_for_dynamic(
      threads_, index_.size(), 0,
      [&](std::size_t, std::size_t, std::size_t begin, std::size_t end) {
        warmup_sink_.fetch_add(index_.warm_rows(begin, end), std::memory_order_relaxed);
      });
  if (metrics_ != nullptr) {
    metrics_->gauge("query.warmup_seconds").set(timer.seconds());
  }
}

double QueryEngine::observe_recall(
    const std::vector<std::vector<Neighbor>>& truth,
    const std::vector<std::vector<Neighbor>>& results) const {
  double total = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < truth.size() && i < results.size(); ++i) {
    if (truth[i].empty()) continue;
    std::size_t hits = 0;
    for (const Neighbor& t : truth[i]) {
      for (const Neighbor& r : results[i]) {
        if (r.id == t.id) {
          ++hits;
          break;
        }
      }
    }
    total += static_cast<double>(hits) / static_cast<double>(truth[i].size());
    ++counted;
  }
  const double recall =
      counted == 0 ? 0.0 : total / static_cast<double>(counted);
  if (metrics_ != nullptr) metrics_->gauge("query.recall_at_k").set(recall);
  return recall;
}

}  // namespace v2v::index
