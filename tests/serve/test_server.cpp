// End-to-end server behavior over real loopback sockets: binary
// round-trip parity with the direct engine, request error handling
// (non-finite query, bad magic, oversized, malformed-but-framed), the
// HTTP shim's
// endpoints, connection-limit backpressure, and the graceful-shutdown
// zero-drop guarantee.
#include "v2v/serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/index/flat_index.hpp"
#include "v2v/index/query_engine.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/serve/client.hpp"
#include "v2v/serve/socket.hpp"

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

/// Server + index + engine bundle every test starts from.
struct Fixture {
  explicit Fixture(ServerConfig config = {}, std::size_t n = 64,
                   std::size_t dims = 8)
      : points(random_points(n, dims, 7)),
        flat(store::EmbeddingView::of(points)),
        engine(flat, {.threads = 2, .metrics = nullptr}) {
    config.metrics = &metrics;
    server = std::make_unique<Server>(engine, config);
  }

  MatrixF points;
  index::FlatIndex flat;
  index::QueryEngine engine;
  obs::MetricsRegistry metrics;
  std::unique_ptr<Server> server;
};

/// Reads one binary response frame off a raw socket.
bool read_response(const Socket& socket, QueryResponse& response) {
  std::uint8_t header[kFrameHeaderBytes];
  if (!read_exact(socket, header, sizeof header)) return false;
  const FrameHeader frame = decode_frame_header({header, sizeof header});
  if (frame.magic != kResponseMagic) return false;
  std::vector<std::uint8_t> payload(frame.payload_bytes);
  if (!read_exact(socket, payload.data(), payload.size())) return false;
  return decode_response_payload(payload, response);
}

/// One blocking HTTP exchange: writes `request`, reads to connection close.
std::string http_exchange(const std::string& host, std::uint16_t port,
                          const std::string& request) {
  const Socket socket = tcp_connect(host, port);
  EXPECT_TRUE(write_all(socket, request.data(), request.size()));
  std::string response;
  char chunk[4096];
  long n = 0;
  while ((n = read_some(socket, chunk, sizeof chunk)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  return response;
}

TEST(ServeServer, BinaryRoundTripIsBitIdenticalToDirectEngine) {
  Fixture f;
  auto client = Client::connect(f.server->host(), f.server->port());
  // Several requests on one connection: framing stays in sync.
  for (std::size_t q = 0; q < 8; ++q) {
    const auto row = f.points.row(q * 5);
    const auto response = client.query(row, 4);
    ASSERT_EQ(response.status, RequestStatus::kOk);
    const auto direct = f.engine.query(row, 4);
    ASSERT_EQ(response.neighbors.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(response.neighbors[i].id, direct[i].id);
      EXPECT_EQ(std::memcmp(&response.neighbors[i].distance,
                            &direct[i].distance, sizeof(double)),
                0);
    }
  }
  EXPECT_EQ(f.metrics.snapshot().counters.at("serve.binary_requests"), 8u);
}

TEST(ServeServer, WrongDimensionsAnswerBadRequestAndKeepConnection) {
  Fixture f;  // index dims = 8
  auto client = Client::connect(f.server->host(), f.server->port());
  const std::vector<float> short_query{1.0f, 2.0f};
  EXPECT_EQ(client.query(short_query, 3).status, RequestStatus::kBadRequest);
  // Same connection still serves valid queries.
  EXPECT_EQ(client.query(f.points.row(0), 3).status, RequestStatus::kOk);
}

TEST(ServeServer, NonFiniteQueryAnswersBadRequestAndKeepsConnection) {
  // Binary frames carry raw float bits, so NaN reaches the server intact.
  Fixture f;  // index dims = 8
  auto client = Client::connect(f.server->host(), f.server->port());
  std::vector<float> query(f.points.row(0).begin(), f.points.row(0).end());
  query[2] = std::numeric_limits<float>::quiet_NaN();
  const auto response = client.query(query, 3);
  EXPECT_EQ(response.status, RequestStatus::kBadRequest);
  EXPECT_TRUE(response.neighbors.empty());
  // Same connection still serves valid queries.
  EXPECT_EQ(client.query(f.points.row(0), 3).status, RequestStatus::kOk);
  EXPECT_EQ(f.metrics.snapshot().counters.at("serve.rejected_bad_request"), 1u);
}

TEST(ServeServer, ClientRejectsKBeyondWireFieldWithoutSending) {
  Fixture f;
  auto client = Client::connect(f.server->host(), f.server->port());
  // 2^32 + 10 would narrow to 10 in the u32 wire field.
  const std::size_t too_big =
      std::size_t{std::numeric_limits<std::uint32_t>::max()} + 11;
  EXPECT_THROW((void)client.query(f.points.row(0), too_big),
               std::invalid_argument);
  // Nothing was sent: the connection stays framed and usable, and the
  // largest representable k is still accepted.
  EXPECT_TRUE(client.connected());
  const auto response =
      client.query(f.points.row(0), std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(response.status, RequestStatus::kOk);
  EXPECT_EQ(response.neighbors.size(), f.points.rows());
  EXPECT_EQ(f.metrics.snapshot().counters.at("serve.binary_requests"), 1u);
}

TEST(ServeServer, BadMagicAnswersBadRequestAndCloses) {
  Fixture f;
  const Socket socket = tcp_connect(f.server->host(), f.server->port());
  const std::uint8_t garbage[kFrameHeaderBytes] = {0xDE, 0xAD, 0xBE, 0xEF,
                                                   4,    0,    0,    0};
  ASSERT_TRUE(write_all(socket, garbage, sizeof garbage));
  QueryResponse response;
  ASSERT_TRUE(read_response(socket, response));
  EXPECT_EQ(response.status, RequestStatus::kBadRequest);
  // The stream is unsyncable, so the server closes: next read sees EOF.
  std::uint8_t byte = 0;
  EXPECT_FALSE(read_exact(socket, &byte, 1));
  EXPECT_GE(f.metrics.snapshot().counters.at("serve.protocol_errors"), 1u);
}

TEST(ServeServer, OversizedFrameIsRefusedWithoutReadingIt) {
  ServerConfig config;
  config.max_frame_bytes = 256;
  Fixture f(config);
  const Socket socket = tcp_connect(f.server->host(), f.server->port());
  // Valid "V2Q1" magic declaring a 1 MiB payload, little-endian.
  const std::uint8_t header[kFrameHeaderBytes] = {0x56, 0x32, 0x51, 0x31,
                                                  0x00, 0x00, 0x10, 0x00};
  ASSERT_TRUE(write_all(socket, header, sizeof header));
  QueryResponse response;
  ASSERT_TRUE(read_response(socket, response));
  EXPECT_EQ(response.status, RequestStatus::kBadRequest);
  std::uint8_t byte = 0;
  EXPECT_FALSE(read_exact(socket, &byte, 1));
}

TEST(ServeServer, MalformedPayloadKeepsFramedConnectionAlive) {
  Fixture f;
  const Socket socket = tcp_connect(f.server->host(), f.server->port());
  // Well-framed request with a nonzero reserved word: decodes false, but
  // the stream stays in sync, so the connection survives.
  QueryRequest request;
  request.k = 3;
  request.query.assign(8, 0.5f);
  auto frame = encode_request_frame(request);
  frame[kFrameHeaderBytes + 12] = 1;  // corrupt the reserved u32
  ASSERT_TRUE(write_all(socket, frame.data(), frame.size()));
  QueryResponse response;
  ASSERT_TRUE(read_response(socket, response));
  EXPECT_EQ(response.status, RequestStatus::kBadRequest);

  const auto good = encode_request_frame(request);
  ASSERT_TRUE(write_all(socket, good.data(), good.size()));
  ASSERT_TRUE(read_response(socket, response));
  EXPECT_EQ(response.status, RequestStatus::kOk);
  EXPECT_EQ(response.neighbors.size(), 3u);
}

TEST(ServeServer, ConnectionLimitAnswersOverloadedFrame) {
  ServerConfig config;
  config.max_connections = 1;
  config.retry_after_ms = 120;
  Fixture f(config);
  auto first = Client::connect(f.server->host(), f.server->port());
  // A completed query guarantees the first connection is registered.
  ASSERT_EQ(first.query(f.points.row(0), 1).status, RequestStatus::kOk);

  const Socket second = tcp_connect(f.server->host(), f.server->port());
  QueryResponse response;
  ASSERT_TRUE(read_response(second, response));
  EXPECT_EQ(response.status, RequestStatus::kOverloaded);
  EXPECT_EQ(response.retry_after_ms, 120u);
  EXPECT_EQ(f.metrics.snapshot().counters.at("serve.rejected_connections"), 1u);
}

TEST(ServeServer, HttpQueryEndpointServesJson) {
  Fixture f;
  std::string body = "{\"query\": [";
  const auto row = f.points.row(3);
  for (std::size_t i = 0; i < row.size(); ++i) {
    body += (i == 0 ? "" : ", ") + std::to_string(row[i]);
  }
  body += "], \"k\": 2}";
  const std::string request = "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  const auto response =
      http_exchange(f.server->host(), f.server->port(), request);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
  // std::to_string rounds the floats, so ids can differ from the exact
  // query; the nearest id for the jittered-but-equal row is still row 3.
  EXPECT_NE(response.find("\"id\":3"), std::string::npos);
  EXPECT_EQ(f.metrics.snapshot().counters.at("serve.http_requests"), 1u);
}

TEST(ServeServer, HttpBadBodyIs400) {
  Fixture f;
  const std::string body = "{\"k\": 5}";  // no query array
  const std::string request = "POST /query HTTP/1.1\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  const auto response =
      http_exchange(f.server->host(), f.server->port(), request);
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
}

TEST(ServeServer, HttpHealthzAndStatsAndUnknown) {
  Fixture f;
  const auto healthz = http_exchange(f.server->host(), f.server->port(),
                                     "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("\"status\":\"serving\""), std::string::npos);

  // Generate some traffic so /stats has counters to show.
  auto client = Client::connect(f.server->host(), f.server->port());
  (void)client.query(f.points.row(0), 1);
  const auto stats = http_exchange(f.server->host(), f.server->port(),
                                   "GET /stats HTTP/1.1\r\n\r\n");
  EXPECT_NE(stats.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(stats.find("serve.requests"), std::string::npos);

  const auto missing = http_exchange(f.server->host(), f.server->port(),
                                     "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
}

TEST(ServeServer, GracefulShutdownDropsNothing) {
  Fixture f(ServerConfig{}, 256, 8);
  constexpr std::size_t kThreads = 4;
  std::atomic<std::uint64_t> answered{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      try {
        auto client = Client::connect(f.server->host(), f.server->port());
        go.store(true, std::memory_order_release);
        for (std::size_t i = 0;; ++i) {
          const auto response =
              client.query(f.points.row((t * 31 + i) % f.points.rows()), 5);
          if (response.status == RequestStatus::kOk ||
              response.status == RequestStatus::kTimeout) {
            answered.fetch_add(1, std::memory_order_relaxed);
          } else {
            break;  // kShuttingDown
          }
        }
      } catch (const std::exception&) {
        // Connection torn down mid-request by shutdown: the request was
        // never admitted, so it does not count either way.
      }
    });
  }
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  f.server->stop();
  for (auto& worker : workers) worker.join();

  // Zero-drop: every admitted request's response reached a client.
  const auto snap = f.metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.requests"), answered.load());
  EXPECT_GE(answered.load(), 1u);
  EXPECT_TRUE(f.server->stopped());
  // stop() is idempotent.
  f.server->stop();
}

}  // namespace
}  // namespace v2v::serve
