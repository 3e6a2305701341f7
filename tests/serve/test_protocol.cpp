// Wire-protocol codecs in isolation: framing round-trips, every
// malformation class (truncated, oversized, dims lies, reserved bits),
// the HTTP head parser, and the JSON query body codec.
#include "v2v/serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace v2v::serve {
namespace {

std::span<const std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  return std::span<const std::uint8_t>(frame).subspan(kFrameHeaderBytes);
}

TEST(ServeProtocol, RequestFrameRoundTrips) {
  QueryRequest request;
  request.k = 7;
  request.deadline_ms = 250;
  request.query = {1.5f, -2.25f, 0.0f, 3.125f};

  const auto frame = encode_request_frame(request);
  const auto header = decode_frame_header(frame);
  EXPECT_EQ(header.magic, kRequestMagic);
  EXPECT_EQ(header.payload_bytes, frame.size() - kFrameHeaderBytes);

  QueryRequest decoded;
  ASSERT_TRUE(decode_request_payload(payload_of(frame), decoded));
  EXPECT_EQ(decoded.k, 7u);
  EXPECT_EQ(decoded.deadline_ms, 250u);
  ASSERT_EQ(decoded.query.size(), 4u);
  // Floats must survive bit for bit.
  EXPECT_EQ(std::memcmp(decoded.query.data(), request.query.data(),
                        4 * sizeof(float)),
            0);
}

TEST(ServeProtocol, ResponseFrameRoundTripsBitIdentical) {
  QueryResponse response;
  response.status = RequestStatus::kOk;
  response.neighbors = {{3, 0.1}, {11, 0.30000000000000004}, {0, 2.0}};

  const auto frame = encode_response_frame(response);
  EXPECT_EQ(decode_frame_header(frame).magic, kResponseMagic);

  QueryResponse decoded;
  ASSERT_TRUE(decode_response_payload(payload_of(frame), decoded));
  EXPECT_EQ(decoded.status, RequestStatus::kOk);
  EXPECT_EQ(decoded.retry_after_ms, 0u);
  ASSERT_EQ(decoded.neighbors.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded.neighbors[i].id, response.neighbors[i].id);
    // The acceptance criterion is bit parity, so compare representations,
    // not values (0.30000000000000004 is the point of this test).
    EXPECT_EQ(std::memcmp(&decoded.neighbors[i].distance,
                          &response.neighbors[i].distance, sizeof(double)),
              0);
  }
}

TEST(ServeProtocol, OverloadedResponseCarriesRetryAfter) {
  QueryResponse response;
  response.status = RequestStatus::kOverloaded;
  response.retry_after_ms = 75;
  QueryResponse decoded;
  ASSERT_TRUE(
      decode_response_payload(payload_of(encode_response_frame(response)), decoded));
  EXPECT_EQ(decoded.status, RequestStatus::kOverloaded);
  EXPECT_EQ(decoded.retry_after_ms, 75u);
  EXPECT_TRUE(decoded.neighbors.empty());
}

TEST(ServeProtocol, TruncatedPayloadsAreRejected) {
  QueryRequest request;
  request.k = 3;
  request.query = {1.0f, 2.0f};
  const auto frame = encode_request_frame(request);
  const auto payload = payload_of(frame);
  QueryRequest out;
  // Every strict prefix of a valid payload must decode false, never read
  // out of bounds.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(decode_request_payload(payload.first(cut), out))
        << "prefix of " << cut << " bytes decoded";
  }
  ASSERT_TRUE(decode_request_payload(payload, out));
}

TEST(ServeProtocol, OversizedAndUnderdeclaredPayloadsAreRejected) {
  QueryRequest request;
  request.k = 1;
  request.query = {4.0f};
  auto frame = encode_request_frame(request);
  frame.push_back(0);  // one trailing byte beyond what dims declares
  QueryRequest out;
  EXPECT_FALSE(decode_request_payload(payload_of(frame), out));
}

TEST(ServeProtocol, NonzeroReservedWordIsRejected) {
  QueryRequest request;
  request.k = 1;
  request.query = {4.0f};
  auto frame = encode_request_frame(request);
  frame[kFrameHeaderBytes + 12] = 0xFF;  // the reserved u32
  QueryRequest out;
  EXPECT_FALSE(decode_request_payload(payload_of(frame), out));
}

TEST(ServeProtocol, TruncatedResponseIsRejected) {
  QueryResponse response;
  response.status = RequestStatus::kOk;
  response.neighbors = {{1, 0.5}, {2, 0.75}};
  const auto frame = encode_response_frame(response);
  const auto payload = payload_of(frame);
  QueryResponse out;
  EXPECT_FALSE(decode_response_payload(payload.first(payload.size() - 1), out));
  // A count field claiming more neighbors than the payload holds must not
  // be trusted.
  auto lying = std::vector<std::uint8_t>(payload.begin(), payload.end());
  lying[8] = 200;  // count lives at offset 8
  EXPECT_FALSE(decode_response_payload(lying, out));
}

TEST(ServeProtocol, FrameHeaderIsLittleEndian) {
  const std::vector<std::uint8_t> bytes{0x56, 0x32, 0x51, 0x31,  // "V2Q1"
                                        0x10, 0x00, 0x00, 0x00};
  const auto header = decode_frame_header(bytes);
  EXPECT_EQ(header.magic, kRequestMagic);
  EXPECT_EQ(header.payload_bytes, 16u);
}

TEST(ServeProtocol, HttpSniffRecognizesMethods) {
  const auto sniff = [](std::string_view s) {
    return looks_like_http(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  };
  EXPECT_TRUE(sniff("GET /sta"));
  EXPECT_TRUE(sniff("POST /qu"));
  EXPECT_TRUE(sniff("HEAD /he"));
  EXPECT_FALSE(sniff("V2Q1\x10\x00\x00\x00"));
  EXPECT_FALSE(sniff("GETAWAY!"));
}

TEST(ServeProtocol, ParsesHttpHead) {
  HttpHead head;
  ASSERT_TRUE(parse_http_head(
      "POST /query HTTP/1.1\r\nHost: x\r\ncontent-length: 42\r\n", head));
  EXPECT_EQ(head.method, "POST");
  EXPECT_EQ(head.target, "/query");
  EXPECT_EQ(head.content_length, 42u);

  ASSERT_TRUE(parse_http_head("GET /healthz HTTP/1.1\r\n", head));
  EXPECT_EQ(head.method, "GET");
  EXPECT_EQ(head.content_length, 0u);

  EXPECT_FALSE(parse_http_head("not an http request", head));
  EXPECT_FALSE(parse_http_head(
      "POST /query HTTP/1.1\r\nContent-Length: banana\r\n", head));
}

TEST(ServeProtocol, BuildsHttpResponses) {
  const auto response =
      http_response(503, "Service Unavailable", "application/json",
                    "{\"status\":\"overloaded\"}", "Retry-After: 1\r\n");
  EXPECT_NE(response.find("HTTP/1.1 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_NE(response.find("Content-Length: 23\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(response.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\n{\"status\":\"overloaded\"}"),
            std::string::npos);
}

TEST(ServeProtocol, ParsesQueryJson) {
  QueryRequest request;
  ASSERT_TRUE(parse_query_json(
      R"({"query": [1.5, -2.0, 0.25], "k": 4, "deadline_ms": 100})", request));
  EXPECT_EQ(request.k, 4u);
  EXPECT_EQ(request.deadline_ms, 100u);
  ASSERT_EQ(request.query.size(), 3u);
  EXPECT_FLOAT_EQ(request.query[1], -2.0f);

  // Defaults: k = 10, deadline deferred to the server.
  ASSERT_TRUE(parse_query_json(R"({"query": [1]})", request));
  EXPECT_EQ(request.k, 10u);
  EXPECT_EQ(request.deadline_ms, 0u);

  EXPECT_FALSE(parse_query_json("not json", request));
  EXPECT_FALSE(parse_query_json(R"({"k": 5})", request));
  EXPECT_FALSE(parse_query_json(R"({"query": "nope"})", request));
}

// Regression for a fuzz-lane finding: "k"/"deadline_ms" were cast to u32
// unchecked, which is UB for NaN and anything outside [0, 2^32). Every
// out-of-range number must now be a clean reject.
TEST(ServeProtocol, QueryJsonRejectsOutOfRangeNumbers) {
  QueryRequest request;
  EXPECT_FALSE(parse_query_json(R"({"query": [1], "k": -1})", request));
  EXPECT_FALSE(parse_query_json(R"({"query": [1], "k": 1e300})", request));
  EXPECT_FALSE(parse_query_json(R"({"query": [1], "k": 4294967296})", request));
  EXPECT_FALSE(
      parse_query_json(R"({"query": [1], "deadline_ms": -0.5})", request));
  EXPECT_FALSE(
      parse_query_json(R"({"query": [1], "deadline_ms": 1e20})", request));
  // The extremes of the representable range still parse.
  ASSERT_TRUE(
      parse_query_json(R"({"query": [1], "k": 4294967295})", request));
  EXPECT_EQ(request.k, 4294967295u);
  ASSERT_TRUE(parse_query_json(R"({"query": [1], "k": 0})", request));
  EXPECT_EQ(request.k, 0u);
}

// A query component beyond float's range was cast unchecked: undefined
// behaviour, in practice inf, and then "-nan" in the JSON answer.
TEST(ServeProtocol, QueryJsonRejectsComponentsOutsideFloatRange) {
  QueryRequest request;
  EXPECT_FALSE(parse_query_json(R"({"query": [1e300]})", request));
  EXPECT_FALSE(parse_query_json(R"({"query": [0.5, -1e39]})", request));
  EXPECT_FALSE(parse_query_json(R"({"query": [3.5e38]})", request));
  // The float extremes and values that underflow to zero still parse.
  ASSERT_TRUE(parse_query_json(
      R"({"query": [3.4028234663852886e38, -3.4028234663852886e38, 1e-300]})",
      request));
  ASSERT_EQ(request.query.size(), 3u);
  EXPECT_EQ(request.query[0], std::numeric_limits<float>::max());
  EXPECT_EQ(request.query[1], -std::numeric_limits<float>::max());
  EXPECT_EQ(request.query[2], 0.0f);
}

TEST(ServeProtocol, QueryResponseJsonIsLossless) {
  QueryResponse response;
  response.status = RequestStatus::kOk;
  response.neighbors = {{7, 0.30000000000000004}};
  const auto body = query_response_json(response);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"id\":7"), std::string::npos);
  // max_digits10 formatting: the shortest round-trippable decimal.
  EXPECT_NE(body.find("0.30000000000000004"), std::string::npos);
}

TEST(ServeProtocol, StatusMappings) {
  EXPECT_EQ(http_status_for(RequestStatus::kOk), 200);
  EXPECT_EQ(http_status_for(RequestStatus::kBadRequest), 400);
  EXPECT_EQ(http_status_for(RequestStatus::kTimeout), 504);
  EXPECT_EQ(http_status_for(RequestStatus::kOverloaded), 503);
  EXPECT_EQ(http_status_for(RequestStatus::kShuttingDown), 503);
  EXPECT_EQ(http_status_for(RequestStatus::kInternal), 500);
  EXPECT_STREQ(request_status_name(RequestStatus::kOk), "ok");
  EXPECT_STREQ(request_status_name(RequestStatus::kOverloaded), "overloaded");
}

}  // namespace
}  // namespace v2v::serve
