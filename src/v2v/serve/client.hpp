// Blocking binary-protocol client for the query server: one TCP
// connection carrying pipelined-free request/response pairs. This is the
// reference client the tests, the load-generator bench, and external
// tooling build on; the HTTP shim needs no client (that is what curl is
// for).
//
// Thread-safety: a Client is a single connection with single-request
// framing — use one Client per thread (the load generator does exactly
// that).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "v2v/serve/protocol.hpp"
#include "v2v/serve/socket.hpp"

namespace v2v::serve {

class Client {
 public:
  /// Connects to a running server; throws std::runtime_error on failure.
  [[nodiscard]] static Client connect(const std::string& host,
                                      std::uint16_t port);

  Client(Client&&) noexcept = default;
  Client& operator=(Client&&) noexcept = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one query and blocks for its response. `deadline_ms` 0 defers
  /// to the server's default deadline. Throws std::invalid_argument, with
  /// nothing sent, when k does not fit the protocol's u32 field, and
  /// std::runtime_error when the connection drops or the response frame
  /// is malformed; server-side failures (timeout, overload, bad request)
  /// come back as the response's status, not exceptions.
  [[nodiscard]] QueryResponse query(std::span<const float> query, std::size_t k,
                                    std::uint32_t deadline_ms = 0);

  /// True while the connection is open (query() throws once it is not).
  [[nodiscard]] bool connected() const noexcept { return socket_.valid(); }

  void close() noexcept { socket_.close(); }

 private:
  explicit Client(Socket socket) noexcept : socket_(std::move(socket)) {}

  Socket socket_;
};

}  // namespace v2v::serve
