#include "v2v/serve/client.hpp"

#include <limits>
#include <stdexcept>
#include <vector>

namespace v2v::serve {

Client Client::connect(const std::string& host, std::uint16_t port) {
  return Client(tcp_connect(host, port));
}

QueryResponse Client::query(std::span<const float> query, std::size_t k,
                            std::uint32_t deadline_ms) {
  // The wire field is u32; narrowing would silently ask for fewer results.
  if (k > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("serve::Client: k exceeds the u32 wire field");
  }
  QueryRequest request;
  request.k = static_cast<std::uint32_t>(k);
  request.deadline_ms = deadline_ms;
  request.query.assign(query.begin(), query.end());
  const auto frame = encode_request_frame(request);
  if (!write_all(socket_, frame.data(), frame.size())) {
    socket_.close();
    throw std::runtime_error("serve::Client: connection lost on write");
  }

  std::uint8_t header[kFrameHeaderBytes];
  if (!read_exact(socket_, header, sizeof header)) {
    socket_.close();
    throw std::runtime_error("serve::Client: connection closed by server");
  }
  const FrameHeader frame_header = decode_frame_header({header, sizeof header});
  if (frame_header.magic != kResponseMagic) {
    socket_.close();
    throw std::runtime_error("serve::Client: bad response magic");
  }
  std::vector<std::uint8_t> payload(frame_header.payload_bytes);
  if (!read_exact(socket_, payload.data(), payload.size())) {
    socket_.close();
    throw std::runtime_error("serve::Client: truncated response");
  }
  QueryResponse response;
  if (!decode_response_payload(payload, response)) {
    socket_.close();
    throw std::runtime_error("serve::Client: malformed response payload");
  }
  return response;
}

}  // namespace v2v::serve
