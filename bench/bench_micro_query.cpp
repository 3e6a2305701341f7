// Micro-benchmarks for the ANN query subsystem, plus the calibrated
// FlatIndex-vs-IvfIndex baseline (BENCH_micro_query.json): QPS and
// recall@10 over an nprobe sweep on a clustered synthetic embedding.
//
// Environment knobs (used by the CI smoke lane):
//   V2V_QUERY_BENCH_ONLY=1  skip the google-benchmark loops, just write
//                           the baseline JSON
//   V2V_QUERY_BENCH_N=...   dataset rows for the baseline (default 50000)
//   V2V_BENCH_OUT=dir       where the JSON lands (default bench_out/)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "micro_bench_main.hpp"
#include "v2v/common/kernels.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/common/timer.hpp"
#include "v2v/index/flat_index.hpp"
#include "v2v/index/ivf_index.hpp"
#include "v2v/index/query_engine.hpp"
#include "v2v/obs/export.hpp"
#include "v2v/obs/metrics.hpp"

namespace {

using namespace v2v;

/// Clustered synthetic embedding: `clusters` gaussian blobs with distinct
/// axis-aligned centers — the workload shape IVF is built for (real
/// embeddings of community-structured graphs cluster the same way).
MatrixF clustered_points(std::size_t n, std::size_t d, std::size_t clusters,
                         std::uint64_t seed) {
  MatrixF points(n, d);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % clusters;
    for (std::size_t j = 0; j < d; ++j) {
      const double center = (j % clusters == c) ? 8.0 : 0.0;
      points(i, j) = static_cast<float>(center + rng.next_gaussian());
    }
  }
  return points;
}

/// Queries jittered off real rows: nearest-neighbor structure is
/// non-trivial but recall against the oracle stays meaningful.
MatrixF jittered_queries(const MatrixF& points, std::size_t count,
                         std::uint64_t seed) {
  MatrixF queries(count, points.cols());
  Rng rng(seed);
  for (std::size_t q = 0; q < count; ++q) {
    const std::size_t src = rng.next_below(points.rows());
    for (std::size_t j = 0; j < points.cols(); ++j) {
      queries(q, j) =
          points(src, j) + static_cast<float>(0.25 * rng.next_gaussian());
    }
  }
  return queries;
}

void BM_FlatSearch(benchmark::State& state) {
  const MatrixF points = clustered_points(5000, 64, 50, 1);
  const index::FlatIndex flat(store::EmbeddingView::of(points),
                              index::DistanceMetric::kEuclidean);
  Rng rng(2);
  std::vector<index::Neighbor> out;
  for (auto _ : state) {
    flat.search_into(points.row(rng.next_below(points.rows())), 10, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatSearch);

void BM_IvfSearch(benchmark::State& state) {
  const MatrixF points = clustered_points(5000, 64, 50, 1);
  index::IvfConfig config;
  config.nlist = 64;
  config.nprobe = static_cast<std::size_t>(state.range(0));
  const index::IvfIndex ivf(store::EmbeddingView::of(points),
                            index::DistanceMetric::kEuclidean, config);
  Rng rng(3);
  std::vector<index::Neighbor> out;
  for (auto _ : state) {
    ivf.search_into(points.row(rng.next_below(points.rows())), 10, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IvfSearch)->Arg(1)->Arg(4)->Arg(16);

void BM_IvfBuild(benchmark::State& state) {
  const MatrixF points = clustered_points(5000, 64, 50, 1);
  index::IvfConfig config;
  config.nlist = 64;
  config.threads = 4;
  for (auto _ : state) {
    const index::IvfIndex ivf(store::EmbeddingView::of(points),
                              index::DistanceMetric::kEuclidean, config);
    benchmark::DoNotOptimize(ivf.nlist());
  }
}
BENCHMARK(BM_IvfBuild);

std::filesystem::path bench_out_dir() {
  const char* env = std::getenv("V2V_BENCH_OUT");
  return (env != nullptr && *env != '\0') ? std::filesystem::path(env)
                                          : std::filesystem::path("bench_out");
}

std::size_t baseline_rows() {
  const char* env = std::getenv("V2V_QUERY_BENCH_N");
  if (env != nullptr && *env != '\0') {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 50000;
}

/// Best-of-`reps` QPS for a batch of queries through `engine`.
double measure_qps(const index::QueryEngine& engine, const MatrixF& queries,
                   std::size_t k, int reps) {
  (void)engine.query_batch(queries, k);  // warmup: faults pages, spins pool
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const WallTimer timer;
    const auto results = engine.query_batch(queries, k);
    const double seconds = timer.seconds();
    benchmark::DoNotOptimize(results.data());
    if (seconds > 0.0) {
      best = std::max(best, static_cast<double>(queries.rows()) / seconds);
    }
  }
  return best;
}

/// The acceptance-gate baseline: FlatIndex vs IvfIndex on `n` x 64
/// clustered vectors with up to 8 query threads (no more than the host's
/// hardware threads, so no engine oversubscribes its cores), recall@10
/// measured against the flat oracle at every swept nprobe. The headline
/// ivf numbers are the cheapest sweep point whose recall clears 0.9.
void write_query_baseline() {
  constexpr std::size_t kDims = 64;
  constexpr std::size_t kTopK = 10;
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 8);
  const std::size_t n = baseline_rows();
  const std::size_t query_count = std::min<std::size_t>(2000, n);

  const MatrixF points = clustered_points(n, kDims, 100, 17);
  const MatrixF queries = jittered_queries(points, query_count, 18);
  const auto view = store::EmbeddingView::of(points);

  const index::FlatIndex flat(view, index::DistanceMetric::kEuclidean);
  const index::QueryEngine flat_engine(flat, {.threads = threads, .metrics = nullptr});
  const double flat_qps = measure_qps(flat_engine, queries, kTopK, 3);
  const auto truth = flat_engine.query_batch(queries, kTopK);

  obs::MetricsRegistry build_metrics;
  index::IvfConfig config;
  config.nlist = 0;  // ~sqrt(n)
  config.threads = threads;
  config.metrics = &build_metrics;
  const WallTimer build_timer;
  index::IvfIndex ivf(view, index::DistanceMetric::kEuclidean, config);
  const double build_seconds = build_timer.seconds();
  const index::QueryEngine ivf_engine(ivf, {.threads = threads, .metrics = nullptr});

  // Same build with the k-means oracle engine: quantifies what the pruned
  // engine buys at build time (the answer is bit-compatible, so recall is
  // untouched by construction). Wall time is recorded for information;
  // the CI gate compares quantizer distance evaluations, which are exact
  // and immune to runner noise.
  obs::MetricsRegistry naive_build_metrics;
  index::IvfConfig naive_config = config;
  naive_config.kmeans_assign = ml::KMeansAssign::kNaive;
  naive_config.metrics = &naive_build_metrics;
  const WallTimer naive_build_timer;
  const index::IvfIndex ivf_naive(view, index::DistanceMetric::kEuclidean,
                                  naive_config);
  const double naive_build_seconds = naive_build_timer.seconds();
  const double eval_ratio =
      static_cast<double>(naive_build_metrics.counter("kmeans.dist_evals").value()) /
      static_cast<double>(
          std::max<std::uint64_t>(1, build_metrics.counter("kmeans.dist_evals").value()));

  obs::MetricsRegistry baseline;
  baseline.gauge("query.rows").set(static_cast<double>(n));
  baseline.gauge("query.dims").set(static_cast<double>(kDims));
  baseline.gauge("query.threads").set(static_cast<double>(threads));
  baseline.gauge("query.ivf_nlist").set(static_cast<double>(ivf.nlist()));
  baseline.gauge("query.ivf_build_seconds").set(build_seconds);
  baseline.gauge("query.ivf_build_naive_seconds").set(naive_build_seconds);
  baseline.gauge("query.ivf_build_speedup")
      .set(build_seconds > 0.0 ? naive_build_seconds / build_seconds : 0.0);
  baseline.gauge("query.ivf_build_dist_eval_ratio").set(eval_ratio);
  baseline.gauge("query.flat_qps").set(flat_qps);
  baseline.counter(std::string("isa.") + kernels::active_isa_name()).add(1);

  double headline_qps = 0.0, headline_recall = 0.0;
  std::size_t headline_nprobe = 0;
  for (const std::size_t nprobe : {1, 2, 4, 8, 16, 32}) {
    if (nprobe > ivf.nlist()) break;
    ivf.set_nprobe(nprobe);
    const double qps = measure_qps(ivf_engine, queries, kTopK, 3);
    const auto results = ivf_engine.query_batch(queries, kTopK);
    const double recall = ivf_engine.observe_recall(truth, results);
    const std::string tag = "query.nprobe_" + std::to_string(nprobe);
    baseline.gauge(tag + ".qps").set(qps);
    baseline.gauge(tag + ".recall_at_10").set(recall);
    std::printf("nprobe=%-3zu qps=%10.0f recall@10=%.4f\n", nprobe, qps, recall);
    if (headline_nprobe == 0 && recall >= 0.9) {
      headline_nprobe = nprobe;
      headline_qps = qps;
      headline_recall = recall;
    }
  }

  baseline.gauge("query.ivf_nprobe").set(static_cast<double>(headline_nprobe));
  baseline.gauge("query.ivf_qps").set(headline_qps);
  baseline.gauge("query.ivf_recall_at_10").set(headline_recall);
  const double speedup = flat_qps > 0.0 ? headline_qps / flat_qps : 0.0;
  baseline.gauge("query.speedup_vs_flat").set(speedup);

  // Quantized frontier: memory-per-vector x recall@10 x QPS for SQ8 and
  // IVF-PQ (+ exact rerank), all against the same flat truth. The CI gate
  // reads the headline gauges; the full frontier stays in the JSON for
  // regression diffing.
  const double float_bpv =
      static_cast<double>(MatrixF::padded_stride(kDims) * sizeof(float));
  baseline.gauge("query.float_bytes_per_vector").set(float_bpv);

  const index::IvfIndex sq(view, index::DistanceMetric::kEuclidean,
                           {.nlist = 1,
                            .codec = index::IvfCodec::kSq8,
                            .threads = threads});
  const index::QueryEngine sq_engine(sq, {.threads = threads, .metrics = nullptr});
  const double sq_qps = measure_qps(sq_engine, queries, kTopK, 3);
  const double sq_recall =
      sq_engine.observe_recall(truth, sq_engine.query_batch(queries, kTopK));
  baseline.gauge("query.sq8_bytes_per_vector").set(sq.bytes_per_vector());
  baseline.gauge("query.sq8_mem_ratio").set(sq.bytes_per_vector() / float_bpv);
  baseline.gauge("query.sq8_qps").set(sq_qps);
  baseline.gauge("query.sq8_recall_at_10").set(sq_recall);
  std::printf("sq8        qps=%10.0f recall@10=%.4f bytes/vec=%.1f (%.2fx)\n",
              sq_qps, sq_recall, sq.bytes_per_vector(),
              sq.bytes_per_vector() / float_bpv);

  index::IvfConfig pq_config;
  pq_config.nlist = 0;  // ~sqrt(n), same default as ivf
  pq_config.codec = index::IvfCodec::kPq;
  pq_config.m = 16;
  pq_config.threads = threads;
  index::IvfIndex ivfpq(view, index::DistanceMetric::kEuclidean, pq_config);
  const index::QueryEngine pq_engine(ivfpq, {.threads = threads, .metrics = nullptr});
  const double pq_bpv = ivfpq.bytes_per_vector();
  baseline.gauge("query.ivfpq_bytes_per_vector").set(pq_bpv);
  baseline.gauge("query.ivfpq_mem_ratio").set(pq_bpv / float_bpv);

  // Sweep nprobe twice — plain ADC ordering, then with exact rerank over
  // the top 30*k — and headline the cheapest reranked point clearing
  // recall 0.9, mirroring the float-IVF sweep above. Plain ADC gets no
  // headline: on this data it never clears 0.9 (PQ error, not probing,
  // bounds it), so only the per-nprobe gauges record it.
  double pqr_qps = 0.0, pqr_recall = 0.0;
  std::size_t pqr_nprobe = 0;
  for (const std::size_t nprobe : {1, 2, 4, 8, 16, 32}) {
    if (nprobe > ivfpq.nlist()) break;
    ivfpq.set_nprobe(nprobe);
    for (const std::size_t rerank : {std::size_t{0}, 30 * kTopK}) {
      ivfpq.set_rerank(rerank);
      const double qps = measure_qps(pq_engine, queries, kTopK, 3);
      const double recall = pq_engine.observe_recall(
          truth, pq_engine.query_batch(queries, kTopK));
      const std::string tag = "query.ivfpq_nprobe_" + std::to_string(nprobe) +
                              (rerank > 0 ? "_rerank" : "");
      baseline.gauge(tag + ".qps").set(qps);
      baseline.gauge(tag + ".recall_at_10").set(recall);
      std::printf("ivfpq%s nprobe=%-3zu qps=%10.0f recall@10=%.4f\n",
                  rerank > 0 ? "+rr" : "    ", nprobe, qps, recall);
      if (rerank > 0 && pqr_nprobe == 0 && recall >= 0.9) {
        pqr_nprobe = nprobe;
        pqr_qps = qps;
        pqr_recall = recall;
      }
    }
  }
  ivfpq.set_rerank(0);
  baseline.gauge("query.ivfpq_rerank_depth")
      .set(static_cast<double>(30 * kTopK));
  baseline.gauge("query.ivfpq_rerank_nprobe")
      .set(static_cast<double>(pqr_nprobe));
  baseline.gauge("query.ivfpq_rerank_qps").set(pqr_qps);
  baseline.gauge("query.ivfpq_rerank_recall_at_10").set(pqr_recall);
  baseline.gauge("query.ivfpq_rerank_speedup_vs_flat")
      .set(flat_qps > 0.0 ? pqr_qps / flat_qps : 0.0);
  baseline.gauge("process.peak_rss_bytes")
      .set(static_cast<double>(obs::peak_rss_bytes()));

  const auto dir = bench_out_dir();
  std::filesystem::create_directories(dir);
  const auto path = (dir / "BENCH_micro_query.json").string();
  obs::write_json_file(baseline, path);
  std::printf(
      "baseline: flat %.0f qps, ivf %.0f qps at nprobe=%zu "
      "(recall@10=%.3f, speedup %.1fx, isa=%s) -> %s\n",
      flat_qps, headline_qps, headline_nprobe, headline_recall, speedup,
      kernels::active_isa_name(), path.c_str());
  std::printf(
      "build: %.2fs default (%zu lists), %.2fs naive k-means "
      "(%.1fx wall, %.1fx dist evals)\n",
      build_seconds, ivf_naive.nlist(), naive_build_seconds,
      build_seconds > 0.0 ? naive_build_seconds / build_seconds : 0.0,
      eval_ratio);
  std::printf(
      "quantized frontier: sq8 %.2fx mem recall=%.3f; ivfpq+rerank %.2fx "
      "mem recall=%.3f at nprobe=%zu (%.1fx flat qps)\n",
      sq.bytes_per_vector() / float_bpv, sq_recall, pq_bpv / float_bpv,
      pqr_recall, pqr_nprobe, flat_qps > 0.0 ? pqr_qps / flat_qps : 0.0);
}

[[nodiscard]] bool baseline_only() {
  const char* env = std::getenv("V2V_QUERY_BENCH_ONLY");
  return env != nullptr && *env != '\0' && *env != '0';
}

}  // namespace

int main(int argc, char** argv) {
  return v2v::bench::micro_bench_main(argc, argv, write_query_baseline,
                                      baseline_only());
}
