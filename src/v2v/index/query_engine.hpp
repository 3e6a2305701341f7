// Concurrent batch query front-end over any VectorIndex.
//
// A QueryEngine owns the serving policy — single queries run inline on the
// caller's thread; batches fan out over the process-wide worker pool
// (parallel_for_dynamic) at up to `threads` workers, the caller being one
// of them, so a one-row batch never leaves the calling thread — and the
// serving telemetry: every query bumps the `query.queries` counter and
// records wall latency into the `query.latency_us` histogram (p50/p99
// readable from the snapshot), and `observe_recall` publishes a
// recall-vs-oracle gauge when ground truth from a FlatIndex is supplied.
//
// Batch semantics (what serve/'s batching admission queue builds on):
//   - Each row of a batch is searched independently — query_batch(Q, k)[i]
//     is identical, distances bit for bit, to query(Q.row(i), k). Batching
//     buys scheduling efficiency, never changes results.
//   - Results are positionally ordered: out[i] answers row i regardless of
//     which pool worker ran it, so batch output is deterministic across
//     thread counts and schedules.
//   - Each result list is the exact top-k under (distance, id) ascending;
//     because that order does not depend on k, the first k' entries of a
//     top-k list ARE the top-k' answer (k' <= k). Callers may therefore
//     over-ask and truncate (serve::BatchQueue batches at the largest
//     per-request k this way).
//   - A batch call blocks until its own rows are answered, never for a
//     concurrent batch or warmup() sharing the pool. There is no per-row
//     cancellation; deadline policy lives a layer up, in serve::BatchQueue.
//
// Thread-safety: all query methods are const and safe to call
// concurrently (VectorIndex::search_into is required to be), including
// concurrently with warmup(). Distinct batches submitted concurrently
// share the one process-wide pool; their rows interleave freely without
// affecting either batch's results or ordering.
//
// The engine is lock-free by construction (a relaxed atomic sink is its
// only mutable state); its one lock is the pool mutex inside
// parallel_for_dynamic (lock_rank::kThreadPool), so no batch may start
// under a mutex ranked above it. New shared mutable state belongs behind
// a v2v::Mutex with a rank from v2v::lock_rank.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <vector>

#include "v2v/common/matrix.hpp"
#include "v2v/index/vector_index.hpp"

namespace v2v::obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace v2v::obs

namespace v2v::index {

struct QueryEngineConfig {
  /// Workers for batch queries and warmup(); <= 1 runs them inline.
  std::size_t threads = 1;
  /// Optional observability sink for the serving metrics above.
  obs::MetricsRegistry* metrics = nullptr;
};

class QueryEngine {
 public:
  /// The index must outlive the engine.
  explicit QueryEngine(const VectorIndex& index, QueryEngineConfig config = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  [[nodiscard]] const VectorIndex& index() const noexcept { return index_; }
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// Top-k for one query, inline on the calling thread.
  [[nodiscard]] std::vector<Neighbor> query(std::span<const float> q,
                                            std::size_t k) const;
  void query_into(std::span<const float> q, std::size_t k,
                  std::vector<Neighbor>& out) const;

  /// Top-k for every row of `queries`, fanned out over the pool (the
  /// calling thread is one of the workers).
  [[nodiscard]] std::vector<std::vector<Neighbor>> query_batch(
      const MatrixF& queries, std::size_t k) const;
  /// Same over selected rows of a larger matrix (crossval's access shape).
  [[nodiscard]] std::vector<std::vector<Neighbor>> query_rows(
      const MatrixF& points, std::span<const std::size_t> rows,
      std::size_t k) const;

  /// Streams every indexed row once (touches all pages — prefaults an
  /// mmapped snapshot and pulls the codes into cache). Safe concurrently
  /// with queries; records query.warmup_seconds when metrics are wired.
  void warmup() const;

  /// Mean recall@k of `results` against exact `truth` (per-query id-set
  /// overlap / truth size); publishes the query.recall_at_k gauge when
  /// metrics are wired. The two outer vectors must be the same length.
  double observe_recall(const std::vector<std::vector<Neighbor>>& truth,
                        const std::vector<std::vector<Neighbor>>& results) const;

 private:
  template <typename RowAt>
  std::vector<std::vector<Neighbor>> run_batch(std::size_t count, std::size_t k,
                                               const RowAt& row_at) const;

  const VectorIndex& index_;
  obs::MetricsRegistry* metrics_;
  obs::Counter* queries_ = nullptr;        ///< cached; may stay null
  obs::Histogram* latency_us_ = nullptr;   ///< cached; may stay null
  std::size_t threads_;
  mutable std::atomic<double> warmup_sink_{0.0};  ///< defeats dead-code elim
};

}  // namespace v2v::index
