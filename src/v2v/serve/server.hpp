// Concurrent TCP front end of the serving layer: accepts connections on a
// listening socket, speaks both wire dialects of protocol.hpp (a
// connection's first bytes pick binary framing or the HTTP/1.1 shim), and
// funnels every query through a BatchQueue so concurrent connections
// coalesce into QueryEngine batches. A batch is whatever queued while the
// engine was busy; no request waits for a batch to fill.
//
// Threading model: one accept thread plus one thread per live connection
// (the BatchQueue dispatcher runs each batch's first chunk and the
// QueryEngine pool the rest, so connection threads spend their lives
// blocked on socket reads or on a batch future — cheap). Finished connection threads are reaped on the
// accept path; `max_connections` bounds the live set, with excess
// connections accepted and immediately closed after a kOverloaded
// response so clients see backpressure, not a SYN backlog stall.
//
// Graceful shutdown (`stop()`, also run by the destructor):
//   1. the listener is shut down — no new connections;
//   2. every live connection is read-shutdown — handlers blocked in a
//      read unblock with EOF, but a handler mid-request still writes its
//      response (writes stay open);
//   3. connection threads are joined — every in-flight request completes;
//   4. the BatchQueue drains — every admitted request is answered.
// Net effect, asserted by tests and the CI smoke: zero accepted requests
// are dropped at shutdown.
//
// Endpoints served by the HTTP shim (one request per connection):
//   POST /query    {"query":[...], "k":10, "deadline_ms":0} -> neighbors
//   GET  /stats    full obs registry snapshot (schema v2v.metrics.v1)
//   GET  /healthz  {"status":"serving", ...} liveness probe
//
// Server-level metrics (beyond the BatchQueue's serve.* set):
//   serve.connections           accepted (including later-rejected) count
//   serve.rejected_connections  closed immediately at max_connections
//   serve.http_requests         HTTP-shim requests handled
//   serve.binary_requests       binary frames handled
//   serve.protocol_errors       malformed frames / heads / oversized
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>

#include "v2v/common/sync.hpp"
#include "v2v/serve/batch_queue.hpp"
#include "v2v/serve/socket.hpp"

namespace v2v::index {
class QueryEngine;
}  // namespace v2v::index

namespace v2v::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds a kernel-assigned ephemeral port; read it back via port().
  std::uint16_t port = 0;
  /// Live-connection bound (thread-per-connection).
  std::size_t max_connections = 256;
  /// Largest accepted frame payload; larger declared lengths are answered
  /// kBadRequest and the connection is closed (the bytes are never read).
  /// Also caps the HTTP head + body.
  std::size_t max_frame_bytes = std::size_t{1} << 20;
  /// Retry-After hint (milliseconds) attached to kOverloaded responses.
  std::uint32_t retry_after_ms = 50;
  /// Admission-queue policy (batch size, capacity, deadlines).
  BatchQueueConfig batch;
  /// Sink for the server metrics above and the /stats endpoint; also
  /// copied into batch.metrics when that is null.
  obs::MetricsRegistry* metrics = nullptr;
};

class Server {
 public:
  /// Binds, listens, and starts serving immediately. The engine (and its
  /// index) must outlive the server. Throws std::runtime_error when the
  /// socket cannot be bound.
  explicit Server(const index::QueryEngine& engine, ServerConfig config = {});
  ~Server();  ///< stop()s if the caller did not

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The resolved listening port (meaningful when config.port was 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const std::string& host() const noexcept { return config_.host; }

  /// Graceful shutdown as documented above. Idempotent; blocks until the
  /// drain completes.
  void stop() V2V_EXCLUDES(stop_mutex_, connections_mutex_);

  [[nodiscard]] bool stopped() const noexcept {
    return stopping_.load(std::memory_order_acquire);
  }

  /// The admission queue, exposed for in-process callers (the offline
  /// mode of v2v_query_tool submits parsed stdin queries here so both
  /// modes exercise the same batching path).
  [[nodiscard]] BatchQueue& queue() noexcept { return *queue_; }

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop() V2V_EXCLUDES(connections_mutex_);
  void handle_connection(Connection* connection);
  void handle_binary(Socket& socket, const std::uint8_t* first_header);
  void handle_http(Socket& socket, std::string buffered);
  [[nodiscard]] QueryResponse run_query(QueryRequest request);
  void reap_finished() V2V_EXCLUDES(connections_mutex_);
  void bump(const char* name, std::uint64_t delta = 1);

  const ServerConfig config_;
  obs::MetricsRegistry* metrics_;
  std::unique_ptr<BatchQueue> queue_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  /// Outer lock of the stop path: stop() nests connections_mutex_ (and,
  /// through queue_->shutdown(), the batch-queue locks) inside it.
  Mutex stop_mutex_{"serve.server.stop", lock_rank::kServerStop};
  Mutex connections_mutex_{"serve.server.connections",
                           lock_rank::kServerConnections};
  std::list<std::unique_ptr<Connection>> connections_
      V2V_GUARDED_BY(connections_mutex_);
  std::thread acceptor_;
};

}  // namespace v2v::serve
