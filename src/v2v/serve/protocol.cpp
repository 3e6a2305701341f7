#include "v2v/serve/protocol.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "v2v/obs/export.hpp"

namespace v2v::serve {

namespace {

// All wire integers are little-endian; floats/doubles travel as their
// IEEE-754 bytes in the same order. memcpy-based packing keeps this
// well-defined regardless of host alignment.
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const std::array<std::uint8_t, 4> b{
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  out.insert(out.end(), b.begin(), b.end());
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void put_f32(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u32(out, bits);
}

float get_f32(const std::uint8_t* p) noexcept {
  const std::uint32_t bits = get_u32(p);
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u32(out, static_cast<std::uint32_t>(bits));
  put_u32(out, static_cast<std::uint32_t>(bits >> 32));
}

double get_f64(const std::uint8_t* p) noexcept {
  const std::uint64_t bits = static_cast<std::uint64_t>(get_u32(p)) |
                             (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

constexpr std::size_t kRequestFixedBytes = 16;   // k, deadline_ms, dims, reserved
constexpr std::size_t kResponseFixedBytes = 12;  // status, retry_after_ms, count
constexpr std::size_t kNeighborBytes = 12;       // u32 id + f64 distance

}  // namespace

const char* request_status_name(RequestStatus status) noexcept {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kBadRequest: return "bad_request";
    case RequestStatus::kTimeout: return "timeout";
    case RequestStatus::kOverloaded: return "overloaded";
    case RequestStatus::kShuttingDown: return "shutting_down";
    case RequestStatus::kInternal: return "internal";
  }
  return "unknown";
}

FrameHeader decode_frame_header(std::span<const std::uint8_t> bytes) noexcept {
  FrameHeader header;
  if (bytes.size() < kFrameHeaderBytes) return header;
  header.magic = get_u32(bytes.data());
  header.payload_bytes = get_u32(bytes.data() + 4);
  return header;
}

std::vector<std::uint8_t> encode_request_frame(const QueryRequest& request) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + kRequestFixedBytes + 4 * request.query.size());
  put_u32(out, kRequestMagic);
  put_u32(out, static_cast<std::uint32_t>(kRequestFixedBytes +
                                          4 * request.query.size()));
  put_u32(out, request.k);
  put_u32(out, request.deadline_ms);
  put_u32(out, static_cast<std::uint32_t>(request.query.size()));
  put_u32(out, 0);  // reserved
  for (const float x : request.query) put_f32(out, x);
  return out;
}

std::vector<std::uint8_t> encode_response_frame(const QueryResponse& response) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + kResponseFixedBytes +
              kNeighborBytes * response.neighbors.size());
  put_u32(out, kResponseMagic);
  put_u32(out, static_cast<std::uint32_t>(
                   kResponseFixedBytes + kNeighborBytes * response.neighbors.size()));
  put_u32(out, static_cast<std::uint32_t>(response.status));
  put_u32(out, response.retry_after_ms);
  put_u32(out, static_cast<std::uint32_t>(response.neighbors.size()));
  for (const index::Neighbor& n : response.neighbors) {
    put_u32(out, n.id);
    put_f64(out, n.distance);
  }
  return out;
}

bool decode_request_payload(std::span<const std::uint8_t> payload,
                            QueryRequest& out) {
  if (payload.size() < kRequestFixedBytes) return false;
  const std::uint32_t k = get_u32(payload.data());
  const std::uint32_t deadline_ms = get_u32(payload.data() + 4);
  const std::uint32_t dims = get_u32(payload.data() + 8);
  const std::uint32_t reserved = get_u32(payload.data() + 12);
  if (reserved != 0) return false;
  if (payload.size() != kRequestFixedBytes + 4 * static_cast<std::size_t>(dims)) {
    return false;
  }
  out.k = k;
  out.deadline_ms = deadline_ms;
  out.query.resize(dims);
  for (std::uint32_t i = 0; i < dims; ++i) {
    out.query[i] = get_f32(payload.data() + kRequestFixedBytes + 4 * i);
  }
  return true;
}

bool decode_response_payload(std::span<const std::uint8_t> payload,
                             QueryResponse& out) {
  if (payload.size() < kResponseFixedBytes) return false;
  const std::uint32_t status = get_u32(payload.data());
  if (status > static_cast<std::uint32_t>(RequestStatus::kInternal)) return false;
  const std::uint32_t retry_after_ms = get_u32(payload.data() + 4);
  const std::uint32_t count = get_u32(payload.data() + 8);
  if (payload.size() !=
      kResponseFixedBytes + kNeighborBytes * static_cast<std::size_t>(count)) {
    return false;
  }
  out.status = static_cast<RequestStatus>(status);
  out.retry_after_ms = retry_after_ms;
  out.neighbors.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* p = payload.data() + kResponseFixedBytes + kNeighborBytes * i;
    out.neighbors[i].id = get_u32(p);
    out.neighbors[i].distance = get_f64(p + 4);
  }
  return true;
}

// ---------------------------------------------------------------------------
// HTTP/1.1 shim.

bool looks_like_http(std::span<const std::uint8_t> prefix) noexcept {
  const std::string_view text(reinterpret_cast<const char*>(prefix.data()),
                              prefix.size());
  for (const std::string_view method :
       {"GET ", "POST ", "HEAD ", "PUT ", "DELETE ", "OPTIONS "}) {
    const std::size_t n = std::min(text.size(), method.size());
    if (n > 0 && text.substr(0, n) == method.substr(0, n)) return true;
  }
  return false;
}

bool parse_http_head(std::string_view head, HttpHead& out) {
  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const std::size_t sp2 = request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  if (request_line.substr(sp2 + 1, 5) != "HTTP/") return false;
  out.method = std::string(request_line.substr(0, sp1));
  out.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  out.content_length = 0;
  if (out.method.empty() || out.target.empty()) return false;

  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view{} : head.substr(line_end + 2);
  while (!rest.empty()) {
    const std::size_t eol = rest.find("\r\n");
    const std::string_view line =
        eol == std::string_view::npos ? rest : rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{} : rest.substr(eol + 2);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string name(line.substr(0, colon));
    for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (name != "content-length") continue;
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    while (!value.empty() && (value.back() == ' ' || value.back() == '\r')) {
      value.remove_suffix(1);
    }
    if (value.empty()) return false;
    std::size_t parsed = 0;
    for (const char c : value) {
      if (c < '0' || c > '9') return false;
      parsed = parsed * 10 + static_cast<std::size_t>(c - '0');
      if (parsed > (std::size_t{1} << 31)) return false;
    }
    out.content_length = parsed;
  }
  return true;
}

std::string http_response(int status_code, std::string_view reason,
                          std::string_view content_type, std::string_view body,
                          std::string_view extra_headers) {
  std::string out;
  out.reserve(body.size() + 160);
  out += "HTTP/1.1 " + std::to_string(status_code) + " ";
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n";
  out += extra_headers;
  out += "\r\n";
  out += body;
  return out;
}

namespace {

// Untrusted double -> u32. The cast alone is UB for NaN or anything
// outside [0, 2^32): `!(x >= 0)` also rejects NaN (every comparison with
// NaN is false). Found by the fuzz lane (fuzz/fuzz_protocol.cpp).
bool checked_u32(double value, std::uint32_t& out) noexcept {
  if (!(value >= 0.0) || value > 4294967295.0) return false;
  out = static_cast<std::uint32_t>(value);
  return true;
}

}  // namespace

bool parse_query_json(std::string_view body, QueryRequest& out) {
  obs::JsonValue doc;
  try {
    doc = obs::parse_json(body);
  } catch (const std::exception&) {
    return false;
  }
  if (!doc.is_object() || !doc.contains("query") ||
      !doc.at("query").is_array()) {
    return false;
  }
  out.k = 10;
  out.deadline_ms = 0;
  if (doc.contains("k")) {
    if (!doc.at("k").is_number() || !checked_u32(doc.at("k").number, out.k)) {
      return false;
    }
  }
  if (doc.contains("deadline_ms")) {
    if (!doc.at("deadline_ms").is_number() ||
        !checked_u32(doc.at("deadline_ms").number, out.deadline_ms)) {
      return false;
    }
  }
  const auto& array = doc.at("query").array;
  out.query.resize(array.size());
  for (std::size_t i = 0; i < array.size(); ++i) {
    if (!array[i].is_number()) return false;
    // A double beyond float's range converts to inf at best (the cast is
    // undefined behaviour); `!(|x| <= max)` also rejects NaN.
    const double x = array[i].number;
    if (!(std::fabs(x) <= std::numeric_limits<float>::max())) return false;
    out.query[i] = static_cast<float>(x);
  }
  return true;
}

std::string query_response_json(const QueryResponse& response) {
  std::string out = "{\"status\":\"";
  out += request_status_name(response.status);
  out += "\"";
  if (response.retry_after_ms != 0) {
    out += ",\"retry_after_ms\":" + std::to_string(response.retry_after_ms);
  }
  out += ",\"neighbors\":[";
  char buffer[64];
  for (std::size_t i = 0; i < response.neighbors.size(); ++i) {
    const index::Neighbor& n = response.neighbors[i];
    std::snprintf(buffer, sizeof buffer, "%s{\"id\":%u,\"distance\":%.*g}",
                  i == 0 ? "" : ",", n.id,
                  std::numeric_limits<double>::max_digits10, n.distance);
    out += buffer;
  }
  out += "]}";
  return out;
}

int http_status_for(RequestStatus status) noexcept {
  switch (status) {
    case RequestStatus::kOk: return 200;
    case RequestStatus::kBadRequest: return 400;
    case RequestStatus::kTimeout: return 504;
    case RequestStatus::kOverloaded: return 503;
    case RequestStatus::kShuttingDown: return 503;
    case RequestStatus::kInternal: return 500;
  }
  return 500;
}

}  // namespace v2v::serve
