// Wire protocol of the serving layer (docs/SERVING.md has the operator
// view). Two dialects share one listening port:
//
//   Binary ("V2Q1"): length-prefixed frames for low-overhead clients. An
//   8-byte header — u32 magic, u32 payload_bytes, both little-endian —
//   precedes every frame in both directions. A connection carries any
//   number of request/response pairs (responses come back in request
//   order). Request payload:
//
//       u32 k            neighbors wanted (clamped to index size)
//       u32 deadline_ms  per-request deadline; 0 = server default
//       u32 dims         query dimensionality (must match the index)
//       u32 reserved     must be 0
//       f32[dims]        the query vector (finite components only)
//
//   Response payload:
//
//       u32 status          RequestStatus below
//       u32 retry_after_ms  backoff hint; nonzero only with kOverloaded
//       u32 count           neighbors that follow
//       count * { u32 id; f64 distance }
//
//   Distances travel as the same doubles QueryEngine computes, so a
//   round-tripped response is bit-identical to a direct
//   VectorIndex::search on the server — the parity property the serve
//   smoke test and bench gate on.
//
//   HTTP/1.1 shim: a connection whose first bytes spell an HTTP method is
//   served one curl-able request (POST /query with a JSON body, GET
//   /stats, GET /healthz) and closed. Status mapping: kOk -> 200,
//   kBadRequest -> 400, kTimeout -> 504, kOverloaded / kShuttingDown ->
//   503 (with Retry-After), kInternal -> 500.
//
// Everything in this header is pure encode/decode over byte buffers — no
// sockets — so the framing rules (including truncation and oversize
// handling) are unit-testable in isolation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "v2v/index/vector_index.hpp"

namespace v2v::serve {

/// Typed outcome of one admitted (or rejected) query. The numeric values
/// are wire format — append, never renumber.
enum class RequestStatus : std::uint32_t {
  kOk = 0,            ///< neighbors returned
  kBadRequest = 1,    ///< malformed frame / wrong dims / non-finite query / bad JSON
  kTimeout = 2,       ///< deadline expired before a result was ready
  kOverloaded = 3,    ///< admission queue full; honor retry_after_ms
  kShuttingDown = 4,  ///< server draining; do not retry this endpoint
  kInternal = 5,      ///< unexpected server-side failure
};

[[nodiscard]] const char* request_status_name(RequestStatus status) noexcept;

/// One decoded binary query request.
struct QueryRequest {
  std::uint32_t k = 0;
  std::uint32_t deadline_ms = 0;  ///< 0 = use the server's default deadline
  std::vector<float> query;
};

/// One decoded binary query response.
struct QueryResponse {
  RequestStatus status = RequestStatus::kInternal;
  std::uint32_t retry_after_ms = 0;  ///< nonzero only with kOverloaded
  std::vector<index::Neighbor> neighbors;
};

// Frame header: u32 magic + u32 payload_bytes, little-endian on the wire.
inline constexpr std::uint32_t kRequestMagic = 0x31513256;   // "V2Q1"
inline constexpr std::uint32_t kResponseMagic = 0x31523256;  // "V2R1"
inline constexpr std::size_t kFrameHeaderBytes = 8;

struct FrameHeader {
  std::uint32_t magic = 0;
  std::uint32_t payload_bytes = 0;
};

/// Decodes the fixed 8-byte frame header. `bytes.size()` must be at least
/// kFrameHeaderBytes; magic/length validation is the caller's policy (the
/// server enforces its own max_frame_bytes cap).
[[nodiscard]] FrameHeader decode_frame_header(std::span<const std::uint8_t> bytes) noexcept;

/// Serializes a complete frame (header + payload) ready to write.
[[nodiscard]] std::vector<std::uint8_t> encode_request_frame(const QueryRequest& request);
[[nodiscard]] std::vector<std::uint8_t> encode_response_frame(const QueryResponse& response);

/// Decodes a frame payload (the bytes after the header). Returns false on
/// any malformation — short/overlong payload, dims disagreeing with the
/// payload size, nonzero reserved words — leaving `out` unspecified.
[[nodiscard]] bool decode_request_payload(std::span<const std::uint8_t> payload,
                                          QueryRequest& out);
[[nodiscard]] bool decode_response_payload(std::span<const std::uint8_t> payload,
                                           QueryResponse& out);

// ---------------------------------------------------------------------------
// HTTP/1.1 shim helpers.

/// True when the first bytes of a connection look like an HTTP request
/// line (GET/POST/HEAD/PUT/DELETE/OPTIONS followed by a space). Used to
/// pick the dialect from the first kFrameHeaderBytes read.
[[nodiscard]] bool looks_like_http(std::span<const std::uint8_t> prefix) noexcept;

/// Parsed request line + the one header the shim needs.
struct HttpHead {
  std::string method;
  std::string target;
  std::size_t content_length = 0;
};

/// Parses an HTTP head (request line + headers, excluding the terminating
/// blank line and body). Returns false on a malformed request line or an
/// unparseable Content-Length.
[[nodiscard]] bool parse_http_head(std::string_view head, HttpHead& out);

/// Builds a complete HTTP/1.1 response with Content-Length and
/// "Connection: close". `extra_headers` is either empty or whole
/// "Name: value\r\n" lines.
[[nodiscard]] std::string http_response(int status_code, std::string_view reason,
                                        std::string_view content_type,
                                        std::string_view body,
                                        std::string_view extra_headers = {});

/// Parses the POST /query JSON body: {"query": [floats], "k": n,
/// "deadline_ms": n}. "k" defaults to 10, "deadline_ms" to 0 (server
/// default). Returns false on malformed JSON, a missing/non-numeric
/// query array, or a query component outside float's finite range.
[[nodiscard]] bool parse_query_json(std::string_view body, QueryRequest& out);

/// Formats a QueryResponse as the /query JSON body:
/// {"status":"ok","neighbors":[{"id":3,"distance":0.25},...]} — distances
/// at max_digits10 so the JSON view is also lossless.
[[nodiscard]] std::string query_response_json(const QueryResponse& response);

/// HTTP status code for a RequestStatus (mapping documented above).
[[nodiscard]] int http_status_for(RequestStatus status) noexcept;

}  // namespace v2v::serve
