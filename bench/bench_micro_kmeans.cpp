// Micro-benchmarks for the k-means engine, plus the calibrated
// naive-vs-pruned baseline (BENCH_micro_kmeans.json): wall time for the
// kNaive oracle against the default kHamerly engine on the same clustered
// workload, with bit-exact SSE/assignment agreement asserted as part of
// the measurement (a baseline whose "speedup" comes from computing a
// different answer is worthless). The baseline also times the worker
// pool's dispatch, which k-means pays twice per Lloyd iteration:
// pool.dispatch_p50_us is the median of 2,000 four-thread
// parallel_for_dynamic calls on a trivial body.
//
// Environment knobs (used by the CI smoke lane):
//   V2V_KMEANS_BENCH_ONLY=1   skip the google-benchmark loops, just write
//                             the baseline JSON
//   V2V_KMEANS_BENCH_N=...    baseline points (default 50000)
//   V2V_KMEANS_BENCH_K=...    baseline clusters (default 256)
//   V2V_KMEANS_BENCH_ITERS=.. Lloyd iteration cap (default 25)
//   V2V_BENCH_OUT=dir         where the JSON lands (default bench_out/)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "micro_bench_main.hpp"
#include "v2v/common/kernels.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/common/thread_pool.hpp"
#include "v2v/common/timer.hpp"
#include "v2v/ml/kmeans.hpp"
#include "v2v/obs/export.hpp"
#include "v2v/obs/metrics.hpp"

namespace {

using namespace v2v;

/// Clustered synthetic points: `blobs` gaussian blobs on distinct
/// axis-aligned centers — the workload shape triangle-inequality pruning
/// is built for (embeddings of community-structured graphs cluster the
/// same way; see bench_micro_query for the serving-side twin).
MatrixF clustered_points(std::size_t n, std::size_t d, std::size_t blobs,
                         std::uint64_t seed) {
  Rng rng(seed);
  MatrixF centers(blobs, d);
  for (std::size_t c = 0; c < blobs; ++c) {
    for (std::size_t j = 0; j < d; ++j) {
      centers(c, j) = static_cast<float>(6.0 * rng.next_gaussian());
    }
  }
  MatrixF points(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % blobs;
    for (std::size_t j = 0; j < d; ++j) {
      points(i, j) = centers(c, j) + static_cast<float>(rng.next_gaussian());
    }
  }
  return points;
}

void BM_KMeansAssignMode(benchmark::State& state) {
  const MatrixF points = clustered_points(4000, 32, 40, 1);
  ml::KMeansConfig config;
  config.k = 40;
  config.restarts = 1;
  config.max_iterations = 10;
  config.seed = 7;
  config.assign = static_cast<ml::KMeansAssign>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kmeans(points, config).sse);
  }
  state.SetLabel(ml::assign_mode_name(config.assign));
}
BENCHMARK(BM_KMeansAssignMode)->Arg(0)->Arg(1)->Arg(2);

void BM_KMeansThreads(benchmark::State& state) {
  const MatrixF points = clustered_points(8000, 32, 40, 1);
  ml::KMeansConfig config;
  config.k = 40;
  config.restarts = 1;
  config.max_iterations = 10;
  config.seed = 7;
  config.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kmeans(points, config).sse);
  }
}
BENCHMARK(BM_KMeansThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_AssignToCentroids(benchmark::State& state) {
  const MatrixF points = clustered_points(20000, 64, 100, 1);
  ml::KMeansConfig config;
  config.k = 100;
  config.restarts = 1;
  config.max_iterations = 3;
  config.seed = 7;
  const auto trained = ml::kmeans(points, config);
  const auto mode = static_cast<ml::KMeansAssign>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ml::assign_to_centroids(points, trained.centroids, 1, mode).size());
  }
  state.SetLabel(ml::assign_mode_name(mode));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.rows()));
}
BENCHMARK(BM_AssignToCentroids)->Arg(0)->Arg(1)->Arg(2);

std::filesystem::path bench_out_dir() {
  const char* env = std::getenv("V2V_BENCH_OUT");
  return (env != nullptr && *env != '\0') ? std::filesystem::path(env)
                                          : std::filesystem::path("bench_out");
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr && *env != '\0') {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

/// Median microseconds of one 4-thread parallel_for_dynamic call over 64
/// one-item chunks whose body does nothing, over 2,000 calls.
double pool_dispatch_p50_us() {
  constexpr std::size_t kCalls = 2000;
  std::vector<double> us(kCalls);
  for (double& call_us : us) {
    const WallTimer timer;
    parallel_for_dynamic(4, 64, 1,
                         [](std::size_t, std::size_t chunk, std::size_t, std::size_t) {
                           benchmark::DoNotOptimize(chunk);
                         });
    call_us = timer.seconds() * 1e6;
  }
  std::nth_element(us.begin(), us.begin() + kCalls / 2, us.end());
  return us[kCalls / 2];
}

/// The acceptance-gate baseline: one timed kmeans() per engine on the
/// same points/seed, identical-answer check inline, speedup reported as
/// naive_seconds / fast_seconds.
void write_kmeans_baseline() {
  constexpr std::size_t kDims = 64;
  constexpr std::size_t kRestarts = 4;
  constexpr std::size_t kThreads = 8;
  const std::size_t n = env_size("V2V_KMEANS_BENCH_N", 50000);
  const std::size_t k = env_size("V2V_KMEANS_BENCH_K", 256);
  const std::size_t iters = env_size("V2V_KMEANS_BENCH_ITERS", 25);

  const MatrixF points = clustered_points(n, kDims, k, 17);
  ml::KMeansConfig config;
  config.k = k;
  config.restarts = kRestarts;
  config.max_iterations = iters;
  config.seed = 17;
  config.threads = kThreads;

  obs::MetricsRegistry fast_metrics;
  config.assign = ml::KMeansAssign::kHamerly;
  config.metrics = &fast_metrics;
  const WallTimer fast_timer;
  const auto fast = ml::kmeans(points, config);
  const double fast_seconds = fast_timer.seconds();

  config.assign = ml::KMeansAssign::kNaive;
  config.metrics = nullptr;
  const WallTimer naive_timer;
  const auto naive = ml::kmeans(points, config);
  const double naive_seconds = naive_timer.seconds();

  // Exactness gate: same bits or the speedup number is meaningless.
  const double sse_delta = std::fabs(naive.sse - fast.sse);
  const bool assignments_equal = naive.assignment == fast.assignment;
  const double speedup = fast_seconds > 0.0 ? naive_seconds / fast_seconds : 0.0;
  const double pruned =
      fast_metrics.gauge("kmeans.pruned_fraction_overall").value();
  const double dispatch_us = pool_dispatch_p50_us();

  obs::MetricsRegistry baseline;
  baseline.gauge("kmeans_bench.rows").set(static_cast<double>(n));
  baseline.gauge("kmeans_bench.dims").set(static_cast<double>(kDims));
  baseline.gauge("kmeans_bench.k").set(static_cast<double>(k));
  baseline.gauge("kmeans_bench.restarts").set(static_cast<double>(kRestarts));
  baseline.gauge("kmeans_bench.threads").set(static_cast<double>(kThreads));
  baseline.gauge("kmeans_bench.max_iterations").set(static_cast<double>(iters));
  baseline.gauge("kmeans_bench.naive_seconds").set(naive_seconds);
  baseline.gauge("kmeans_bench.hamerly_seconds").set(fast_seconds);
  baseline.gauge("kmeans_bench.speedup").set(speedup);
  baseline.gauge("kmeans_bench.sse").set(fast.sse);
  baseline.gauge("kmeans_bench.sse_delta").set(sse_delta);
  baseline.gauge("kmeans_bench.assignments_equal").set(assignments_equal ? 1.0 : 0.0);
  baseline.gauge("kmeans_bench.pruned_fraction").set(pruned);
  baseline.gauge("pool.dispatch_p50_us").set(dispatch_us);
  baseline.gauge("pool.hw_threads")
      .set(static_cast<double>(std::thread::hardware_concurrency()));
  baseline.counter(std::string("isa.") + kernels::active_isa_name()).add(1);

  const auto dir = bench_out_dir();
  std::filesystem::create_directories(dir);
  const auto path = (dir / "BENCH_micro_kmeans.json").string();
  obs::write_json_file(baseline, path);
  std::printf(
      "baseline: naive %.2fs, hamerly %.2fs -> %.1fx "
      "(pruned %.2f, sse_delta %.1e, assignments %s, isa=%s), "
      "pool dispatch p50 %.1f us -> %s\n",
      naive_seconds, fast_seconds, speedup, pruned, sse_delta,
      assignments_equal ? "equal" : "DIFFER", kernels::active_isa_name(),
      dispatch_us, path.c_str());
}

[[nodiscard]] bool baseline_only() {
  const char* env = std::getenv("V2V_KMEANS_BENCH_ONLY");
  return env != nullptr && *env != '\0' && *env != '0';
}

}  // namespace

int main(int argc, char** argv) {
  return v2v::bench::micro_bench_main(argc, argv, write_kmeans_baseline,
                                      baseline_only());
}
