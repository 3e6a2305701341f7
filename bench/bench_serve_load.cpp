// Load generator for the serving layer, plus the committed serve baseline
// (BENCH_serve_load.json): open-loop QPS sweep against a live Server over
// the binary protocol, recording p50/p95/p99 latency, achieved QPS, and
// rejection/timeout counts per sweep point, then a one-connection closed
// loop that splits a lone request's latency into engine time and what
// dispatch adds, a parity pass (server responses vs direct QueryEngine,
// bit-identical distances) and a shutdown burst proving zero admitted
// requests are dropped.
//
// Open-loop means arrivals follow a fixed schedule (request i fires at
// start + i/qps) regardless of how fast responses come back, so queueing
// delay shows up in the latency numbers instead of silently throttling
// the generator (no coordinated omission).
//
// Environment knobs (used by the CI smoke lane):
//   V2V_SERVE_BENCH_ONLY=1  skip the google-benchmark loops, just write
//                           the baseline JSON
//   V2V_SERVE_BENCH_N=...   dataset rows (default 20000)
//   V2V_BENCH_OUT=dir       where the JSON lands (default bench_out/)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "micro_bench_main.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/common/timer.hpp"
#include "v2v/index/flat_index.hpp"
#include "v2v/index/query_engine.hpp"
#include "v2v/obs/export.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/serve/client.hpp"
#include "v2v/serve/server.hpp"

namespace {

using namespace v2v;

/// Clustered synthetic embedding (same generator shape as
/// bench_micro_query: gaussian blobs with distinct axis-aligned centers).
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

std::filesystem::path bench_out_dir() {
  const char* env = std::getenv("V2V_BENCH_OUT");
  return (env != nullptr && *env != '\0') ? std::filesystem::path(env)
                                          : std::filesystem::path("bench_out");
}

std::size_t baseline_rows() {
  const char* env = std::getenv("V2V_SERVE_BENCH_N");
  if (env != nullptr && *env != '\0') {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 20000;
}

/// Outcome tally of one sweep point; latencies only for answered
/// (kOk/kTimeout) requests — rejections return in microseconds and would
/// flatter the percentiles.
struct SweepResult {
  std::vector<double> latencies_us;
  std::uint64_t ok = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t transport_errors = 0;
  double wall_seconds = 0.0;
};

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(rank, sorted_us.size() - 1)];
}

/// One open-loop sweep: `total` requests at `target_qps`, striped
/// round-robin over `threads` connections. Latency is measured from each
/// request's *scheduled* send time, so generator lag counts against the
/// server, not for it.
SweepResult run_sweep(const std::string& host, std::uint16_t port,
                      const MatrixF& queries, std::size_t k, double target_qps,
                      std::size_t total, std::size_t threads,
                      std::uint32_t deadline_ms) {
  SweepResult result;
  std::vector<std::vector<double>> latencies(threads);
  std::atomic<std::uint64_t> ok{0}, timeouts{0}, overloaded{0}, errors{0};

  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(1.0 / target_qps));
  const auto start = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(5);  // everyone sees the gun

  const WallTimer wall;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto client = serve::Client::connect(host, port);
      for (std::size_t i = t; i < total; i += threads) {
        const auto scheduled = start + interval * static_cast<std::int64_t>(i);
        std::this_thread::sleep_until(scheduled);
        try {
          const auto response =
              client.query(queries.row(i % queries.rows()), k, deadline_ms);
          const double us =
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - scheduled)
                  .count();
          switch (response.status) {
            case serve::RequestStatus::kOk:
              ok.fetch_add(1, std::memory_order_relaxed);
              latencies[t].push_back(us);
              break;
            case serve::RequestStatus::kTimeout:
              timeouts.fetch_add(1, std::memory_order_relaxed);
              latencies[t].push_back(us);
              break;
            case serve::RequestStatus::kOverloaded:
              overloaded.fetch_add(1, std::memory_order_relaxed);
              break;
            default:
              errors.fetch_add(1, std::memory_order_relaxed);
              break;
          }
        } catch (const std::exception&) {
          errors.fetch_add(1, std::memory_order_relaxed);
          if (!client.connected()) {
            client = serve::Client::connect(host, port);
          }
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  result.wall_seconds = wall.seconds();
  for (auto& shard : latencies) {
    result.latencies_us.insert(result.latencies_us.end(), shard.begin(),
                               shard.end());
  }
  std::sort(result.latencies_us.begin(), result.latencies_us.end());
  result.ok = ok.load();
  result.timeouts = timeouts.load();
  result.overloaded = overloaded.load();
  result.transport_errors = errors.load();
  return result;
}

/// Server responses vs direct QueryEngine::query over the same index:
/// same ids, bit-identical distances. Returns mismatch count.
std::uint64_t parity_mismatches(const std::string& host, std::uint16_t port,
                                const index::QueryEngine& engine,
                                const MatrixF& queries, std::size_t count,
                                std::size_t k, std::uint64_t* answered) {
  auto client = serve::Client::connect(host, port);
  std::uint64_t mismatches = 0;
  for (std::size_t q = 0; q < count; ++q) {
    const auto row = queries.row(q % queries.rows());
    const auto response = client.query(row, k, /*deadline_ms=*/0);
    if (response.status != serve::RequestStatus::kOk) continue;
    ++*answered;
    const auto direct = engine.query(row, k);
    bool equal = response.neighbors.size() == direct.size();
    for (std::size_t i = 0; equal && i < direct.size(); ++i) {
      equal = response.neighbors[i].id == direct[i].id &&
              std::memcmp(&response.neighbors[i].distance, &direct[i].distance,
                          sizeof(double)) == 0;
    }
    if (!equal) ++mismatches;
  }
  return mismatches;
}

/// p50s of one closed loop: served round trip vs direct engine time.
struct ClosedLoopResult {
  double served_p50_us = 0.0;
  double engine_p50_us = 0.0;
  std::uint64_t answered = 0;  ///< kOk/kTimeout responses
};

/// One connection, `count` sequential queries: each goes out when the
/// previous answer is back, and the same row is then searched directly on
/// the engine, so both p50s see the same rows and cache state. Their gap
/// is what the socket, the admission queue and the thread handoffs add to
/// a lone request.
ClosedLoopResult run_closed_loop(const std::string& host, std::uint16_t port,
                                 const index::QueryEngine& engine,
                                 const MatrixF& queries, std::size_t count,
                                 std::size_t k, std::uint32_t deadline_ms) {
  auto client = serve::Client::connect(host, port);
  std::vector<double> served_us, engine_us;
  served_us.reserve(count);
  engine_us.reserve(count);
  ClosedLoopResult result;
  for (std::size_t q = 0; q < count; ++q) {
    const auto row = queries.row(q % queries.rows());
    const WallTimer served;
    const auto response = client.query(row, k, deadline_ms);
    served_us.push_back(served.seconds() * 1e6);
    if (response.status == serve::RequestStatus::kOk ||
        response.status == serve::RequestStatus::kTimeout) {
      ++result.answered;
    }
    const WallTimer direct;
    const auto answer = engine.query(row, k);
    engine_us.push_back(direct.seconds() * 1e6);
    benchmark::DoNotOptimize(answer.data());
  }
  std::sort(served_us.begin(), served_us.end());
  std::sort(engine_us.begin(), engine_us.end());
  result.served_p50_us = percentile(served_us, 0.50);
  result.engine_p50_us = percentile(engine_us, 0.50);
  return result;
}

/// The committed serve baseline: FlatIndex over n x 64 clustered vectors
/// behind a Server, swept at three open-loop QPS targets, then the closed
/// loop, the parity pass and a shutdown burst. The headline gates (CI
/// smoke):
///   serve_bench.parity == 1, serve_bench.dropped == 0,
///   serve_bench.p99_us (lowest sweep point) under the lane bound,
///   serve_bench.dispatch_overhead_p50_us under 200 (no timed batch wait).
void write_serve_baseline() {
  constexpr std::size_t kDims = 64;
  constexpr std::size_t kTopK = 10;
  constexpr std::size_t kEngineThreads = 4;
  constexpr std::size_t kClientThreads = 4;
  constexpr std::uint32_t kDeadlineMs = 500;
  const std::size_t n = baseline_rows();

  const MatrixF points = clustered_points(n, kDims, 100, 41);
  const MatrixF queries = jittered_queries(points, 2048, 42);
  const index::FlatIndex flat(store::EmbeddingView::of(points),
                              index::DistanceMetric::kEuclidean);
  const index::QueryEngine engine(flat,
                                  {.threads = kEngineThreads, .metrics = nullptr});
  engine.warmup();

  obs::MetricsRegistry metrics;
  serve::ServerConfig config;
  config.port = 0;  // ephemeral
  config.metrics = &metrics;
  serve::Server server(engine, config);
  const auto host = server.host();
  const auto port = server.port();
  std::printf("serve baseline: %zu x %zu flat index on %s:%u\n", n, kDims,
              host.c_str(), port);

  obs::MetricsRegistry baseline;
  baseline.gauge("serve_bench.rows").set(static_cast<double>(n));
  baseline.gauge("serve_bench.dims").set(static_cast<double>(kDims));
  baseline.gauge("serve_bench.engine_threads")
      .set(static_cast<double>(kEngineThreads));
  baseline.gauge("serve_bench.client_threads")
      .set(static_cast<double>(kClientThreads));

  // Requests the clients saw answered (kOk/kTimeout), across every phase.
  // Compared against the server's admission counter at the end: any
  // admitted request whose response never reached a client is a drop.
  std::uint64_t answered = 0;

  double headline_p99 = 0.0;
  bool first_sweep = true;
  for (const double target_qps : {500.0, 2000.0, 8000.0}) {
    const auto total = static_cast<std::size_t>(
        std::min(8000.0, target_qps));  // ~1s per sweep point
    auto sweep = run_sweep(host, port, queries, kTopK, target_qps, total,
                           kClientThreads, kDeadlineMs);
    answered += sweep.ok + sweep.timeouts;
    const double p50 = percentile(sweep.latencies_us, 0.50);
    const double p95 = percentile(sweep.latencies_us, 0.95);
    const double p99 = percentile(sweep.latencies_us, 0.99);
    const double achieved =
        sweep.wall_seconds > 0.0
            ? static_cast<double>(sweep.ok) / sweep.wall_seconds
            : 0.0;
    const std::string tag =
        "serve_bench.qps_" + std::to_string(static_cast<long>(target_qps));
    baseline.gauge(tag + ".p50_us").set(p50);
    baseline.gauge(tag + ".p95_us").set(p95);
    baseline.gauge(tag + ".p99_us").set(p99);
    baseline.gauge(tag + ".achieved_qps").set(achieved);
    baseline.gauge(tag + ".ok").set(static_cast<double>(sweep.ok));
    baseline.gauge(tag + ".timeouts").set(static_cast<double>(sweep.timeouts));
    baseline.gauge(tag + ".rejected").set(static_cast<double>(sweep.overloaded));
    std::printf(
        "target %6.0f qps: achieved %7.0f  p50 %8.0fus  p95 %8.0fus  "
        "p99 %8.0fus  (%llu ok, %llu timeout, %llu rejected, %llu errors)\n",
        target_qps, achieved, p50, p95, p99,
        static_cast<unsigned long long>(sweep.ok),
        static_cast<unsigned long long>(sweep.timeouts),
        static_cast<unsigned long long>(sweep.overloaded),
        static_cast<unsigned long long>(sweep.transport_errors));
    if (first_sweep) {  // uncontended point: the latency gate
      headline_p99 = p99;
      first_sweep = false;
    }
  }
  baseline.gauge("serve_bench.p99_us").set(headline_p99);

  constexpr std::size_t kClosedLoopQueries = 2000;
  const ClosedLoopResult loop = run_closed_loop(
      host, port, engine, queries, kClosedLoopQueries, kTopK, kDeadlineMs);
  answered += loop.answered;
  const double overhead_us = loop.served_p50_us - loop.engine_p50_us;
  baseline.gauge("serve_bench.closed_loop_p50_us").set(loop.served_p50_us);
  baseline.gauge("serve_bench.engine_p50_us").set(loop.engine_p50_us);
  baseline.gauge("serve_bench.dispatch_overhead_p50_us").set(overhead_us);
  std::printf(
      "closed loop: %zu queries, p50 served %.0fus, engine %.0fus, "
      "dispatch overhead %.0fus\n",
      kClosedLoopQueries, loop.served_p50_us, loop.engine_p50_us, overhead_us);

  std::uint64_t parity_answered = 0;
  const std::uint64_t mismatches = parity_mismatches(
      host, port, engine, queries, 256, kTopK, &parity_answered);
  answered += parity_answered;
  baseline.gauge("serve_bench.parity").set(mismatches == 0 ? 1.0 : 0.0);
  baseline.gauge("serve_bench.parity_queries")
      .set(static_cast<double>(parity_answered));
  std::printf("parity: %llu/256 answered, %llu mismatches\n",
              static_cast<unsigned long long>(parity_answered),
              static_cast<unsigned long long>(mismatches));

  // Shutdown burst: clients hammer the server while it stops. Every
  // answered request counts; connection teardown mid-request is a clean
  // rejection, not a drop — drops are measured below from the admission
  // counter.
  std::atomic<std::uint64_t> burst_answered{0};
  std::vector<std::thread> burst;
  burst.reserve(kClientThreads);
  for (std::size_t t = 0; t < kClientThreads; ++t) {
    burst.emplace_back([&, t] {
      try {
        auto client = serve::Client::connect(host, port);
        for (std::size_t i = 0;; ++i) {
          const auto response =
              client.query(queries.row((t * 997 + i) % queries.rows()), kTopK,
                           kDeadlineMs);
          if (response.status == serve::RequestStatus::kOk ||
              response.status == serve::RequestStatus::kTimeout) {
            burst_answered.fetch_add(1, std::memory_order_relaxed);
          }
          if (response.status == serve::RequestStatus::kShuttingDown) break;
        }
      } catch (const std::exception&) {
        // connection torn down by shutdown: expected
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.stop();
  for (auto& thread : burst) thread.join();
  answered += burst_answered.load();

  const std::uint64_t admitted = metrics.counter("serve.requests").value();
  const std::uint64_t dropped = admitted > answered ? admitted - answered : 0;
  baseline.gauge("serve_bench.admitted").set(static_cast<double>(admitted));
  baseline.gauge("serve_bench.answered").set(static_cast<double>(answered));
  baseline.gauge("serve_bench.dropped").set(static_cast<double>(dropped));
  std::printf("shutdown: %llu admitted, %llu answered, %llu dropped\n",
              static_cast<unsigned long long>(admitted),
              static_cast<unsigned long long>(answered),
              static_cast<unsigned long long>(dropped));

  const auto dir = bench_out_dir();
  std::filesystem::create_directories(dir);
  const auto path = (dir / "BENCH_serve_load.json").string();
  obs::write_json_file(baseline, path);
  std::printf("baseline: p99 %.0fus uncontended, parity %s, dropped %llu -> %s\n",
              headline_p99, mismatches == 0 ? "ok" : "BROKEN",
              static_cast<unsigned long long>(dropped), path.c_str());
}

void BM_ClientRoundTrip(benchmark::State& state) {
  const MatrixF points = clustered_points(5000, 64, 50, 1);
  const index::FlatIndex flat(store::EmbeddingView::of(points),
                              index::DistanceMetric::kEuclidean);
  const index::QueryEngine engine(flat, {.threads = 1, .metrics = nullptr});
  serve::Server server(engine);
  auto client = serve::Client::connect(server.host(), server.port());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto response = client.query(points.row(i++ % points.rows()), 10);
    benchmark::DoNotOptimize(response.neighbors.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClientRoundTrip);

void BM_ProtocolCodec(benchmark::State& state) {
  serve::QueryResponse response;
  response.status = serve::RequestStatus::kOk;
  for (std::uint32_t i = 0; i < 10; ++i) {
    response.neighbors.push_back({i, 0.5 * i});
  }
  for (auto _ : state) {
    const auto frame = serve::encode_response_frame(response);
    serve::QueryResponse decoded;
    benchmark::DoNotOptimize(serve::decode_response_payload(
        std::span<const std::uint8_t>(frame).subspan(serve::kFrameHeaderBytes),
        decoded));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProtocolCodec);

[[nodiscard]] bool baseline_only() {
  const char* env = std::getenv("V2V_SERVE_BENCH_ONLY");
  return env != nullptr && *env != '\0' && *env != '0';
}

}  // namespace

int main(int argc, char** argv) {
  return v2v::bench::micro_bench_main(argc, argv, write_serve_baseline,
                                      baseline_only());
}
