// TSan-lane stress for the serving layer: concurrent binary clients,
// HTTP stats polls, and a racing graceful stop. Every answered query must
// still be exact (spot-checked against the direct engine), and the
// zero-drop accounting must balance under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/index/flat_index.hpp"
#include "v2v/index/query_engine.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/serve/client.hpp"
#include "v2v/serve/server.hpp"

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

TEST(ServeStress, ConcurrentClientsStayExactThroughShutdown) {
  const MatrixF points = random_points(300, 12, 21);
  const index::FlatIndex flat(store::EmbeddingView::of(points));
  const index::QueryEngine engine(flat, {.threads = 2, .metrics = nullptr});
  obs::MetricsRegistry metrics;
  ServerConfig config;
  config.batch.max_batch = 8;
  config.metrics = &metrics;
  Server server(engine, config);

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kQueriesEach = 40;
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      try {
        auto client = Client::connect(server.host(), server.port());
        for (std::size_t q = 0; q < kQueriesEach; ++q) {
          const auto row = points.row((t * 53 + q * 7) % points.rows());
          const auto response = client.query(row, 6);
          if (response.status == RequestStatus::kOk) {
            answered.fetch_add(1, std::memory_order_relaxed);
            const auto direct = engine.query(row, 6);
            bool equal = response.neighbors.size() == direct.size();
            for (std::size_t i = 0; equal && i < direct.size(); ++i) {
              equal = response.neighbors[i].id == direct[i].id &&
                      std::memcmp(&response.neighbors[i].distance,
                                  &direct[i].distance, sizeof(double)) == 0;
            }
            if (!equal) mismatches.fetch_add(1, std::memory_order_relaxed);
          } else if (response.status == RequestStatus::kTimeout) {
            answered.fetch_add(1, std::memory_order_relaxed);
          } else {
            break;  // shutdown or backpressure: stop hammering
          }
        }
      } catch (const std::exception&) {
        // torn down by the racing stop(): acceptable
      }
    });
  }

  // Poll the HTTP shim concurrently with the binary traffic.
  std::thread poller([&] {
    for (int i = 0; i < 5; ++i) {
      try {
        const Socket socket = tcp_connect(server.host(), server.port());
        const char request[] = "GET /stats HTTP/1.1\r\n\r\n";
        if (!write_all(socket, request, sizeof request - 1)) continue;
        char chunk[2048];
        while (read_some(socket, chunk, sizeof chunk) > 0) {
        }
      } catch (const std::exception&) {
        // connection-limit or shutdown races are fine here
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  server.stop();  // races against in-flight traffic by design
  for (auto& client : clients) client.join();
  poller.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const auto snap = metrics.snapshot();
  // Zero-drop under contention: admitted == answered, even with stop()
  // racing the clients.
  EXPECT_EQ(snap.counters.at("serve.requests"), answered.load());
}

TEST(ServeStress, ManyQueuesOnOneEngine) {
  // Two BatchQueues sharing one engine (the offline tool and a server can
  // coexist): no interference, both exact.
  const MatrixF points = random_points(100, 6, 22);
  const index::FlatIndex flat(store::EmbeddingView::of(points));
  const index::QueryEngine engine(flat, {.threads = 2, .metrics = nullptr});
  BatchQueue a(engine);
  BatchQueue b(engine);

  std::atomic<std::uint64_t> bad{0};
  std::thread ta([&] {
    for (std::size_t q = 0; q < 50; ++q) {
      const auto row = points.row(q % points.rows());
      const auto result =
          a.query(std::vector<float>(row.begin(), row.end()), 3);
      if (result.status != RequestStatus::kOk ||
          result.neighbors.size() != 3) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread tb([&] {
    for (std::size_t q = 0; q < 50; ++q) {
      const auto row = points.row((q * 3) % points.rows());
      const auto result =
          b.query(std::vector<float>(row.begin(), row.end()), 5);
      if (result.status != RequestStatus::kOk ||
          result.neighbors.size() != 5) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  ta.join();
  tb.join();
  EXPECT_EQ(bad.load(), 0u);
}

}  // namespace
}  // namespace v2v::serve
