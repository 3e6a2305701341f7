// Generates the seed corpora for the fuzz harnesses from the project's own
// encoders — every seed is a structurally valid (or deliberately
// near-valid) input, so the fuzzers start at the interesting part of the
// input space instead of rediscovering the magic bytes.
//
// Usage: fuzz_seed_corpus <protocol_corpus_dir> <snapshot_corpus_dir>
//        [delta_corpus_dir]
//
// Protocol seeds are mode-prefixed to match fuzz_protocol.cpp's dispatch
// byte. Snapshot seeds follow fuzz_snapshot.cpp's convention: header bytes
// followed by an 8-byte little-endian purported file size. Delta seeds are
// plain text straight from the dynamic/delta_io.hpp encoder.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "v2v/dynamic/delta_io.hpp"
#include "v2v/embed/embedding.hpp"
#include "v2v/serve/protocol.hpp"
#include "v2v/store/format.hpp"

namespace {

namespace fs = std::filesystem;

void write_seed(const fs::path& dir, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "fuzz_seed_corpus: cannot write %s\n",
                 (dir / name).c_str());
    std::exit(1);
  }
}

std::vector<std::uint8_t> with_mode(std::uint8_t mode,
                                    std::vector<std::uint8_t> body) {
  body.insert(body.begin(), mode);
  return body;
}

std::vector<std::uint8_t> text_seed(std::uint8_t mode, std::string_view text) {
  std::vector<std::uint8_t> body(text.begin(), text.end());
  return with_mode(mode, std::move(body));
}

// Strips the 8-byte frame header: fuzz_protocol modes 1 and 2 consume bare
// payloads, which is also what the server hands the decoders.
std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  return {frame.begin() + static_cast<std::ptrdiff_t>(v2v::serve::kFrameHeaderBytes),
          frame.end()};
}

void write_protocol_seeds(const fs::path& dir) {
  v2v::serve::QueryRequest request;
  request.k = 5;
  request.deadline_ms = 100;
  request.query = {0.5f, -1.25f, 3.0f, 0.0f};
  const auto request_frame = v2v::serve::encode_request_frame(request);

  v2v::serve::QueryResponse response;
  response.status = v2v::serve::RequestStatus::kOk;
  response.neighbors = {{7, 0.125}, {42, 2.5}};
  const auto response_frame = v2v::serve::encode_response_frame(response);

  write_seed(dir, "frame_header", with_mode(0, request_frame));
  write_seed(dir, "request_payload", with_mode(1, payload_of(request_frame)));
  write_seed(dir, "response_payload", with_mode(2, payload_of(response_frame)));
  write_seed(dir, "http_head",
             text_seed(3,
                       "POST /query HTTP/1.1\r\nHost: x\r\n"
                       "Content-Length: 10\r\n"));
  write_seed(dir, "query_json",
             text_seed(4, R"({"query":[0.5,-1.25],"k":3,"deadline_ms":50})"));
  write_seed(dir, "http_sniff", text_seed(5, "GET /healthz HTTP/1.1\r\n"));
}

std::vector<std::uint8_t> snapshot_seed(std::vector<std::uint8_t> header,
                                        std::uint64_t file_size) {
  std::uint8_t size_bytes[8];
  std::memcpy(size_bytes, &file_size, sizeof size_bytes);
  header.insert(header.end(), size_bytes, size_bytes + sizeof size_bytes);
  return header;
}

void write_snapshot_seeds(const fs::path& dir) {
  // A real snapshot written by the store itself is the ground-truth seed.
  v2v::embed::Embedding embedding(3, 4);
  for (std::size_t v = 0; v < 3; ++v) {
    auto row = embedding.vector(v);
    for (std::size_t d = 0; d < row.size(); ++d) {
      row[d] = static_cast<float>(v) + 0.25f * static_cast<float>(d);
    }
  }
  const fs::path snap = dir / "tmp_seed.v2vsnap";
  v2v::store::SnapshotBuilder builder(embedding.vertex_count(),
                                      embedding.dimensions());
  builder.set_float_matrix(v2v::store::EmbeddingView::of(embedding));
  builder.write(snap.string());
  const std::uint64_t file_size = fs::file_size(snap);

  std::ifstream in(snap, std::ios::binary);
  std::vector<std::uint8_t> header(v2v::store::kSnapshotHeaderBytes);
  in.read(reinterpret_cast<char*>(header.data()),
          static_cast<std::streamsize>(header.size()));
  if (!in) {
    std::fprintf(stderr, "fuzz_seed_corpus: cannot re-read %s\n", snap.c_str());
    std::exit(1);
  }
  fs::remove(snap);

  write_seed(dir, "valid_header", snapshot_seed(header, file_size));
  write_seed(dir, "short_file", snapshot_seed(header, file_size / 2));

  auto bad_magic = header;
  bad_magic[0] ^= 0xff;
  write_seed(dir, "bad_magic", snapshot_seed(bad_magic, file_size));

  // Bad version but a recomputed checksum, so validation gets past the
  // integrity check and into the semantic field checks.
  auto bad_version = header;
  bad_version[8] = 0x7f;
  const std::uint64_t checksum = v2v::store::fnv1a64(bad_version.data(), 64);
  std::memcpy(bad_version.data() + 64, &checksum, sizeof checksum);
  write_seed(dir, "bad_version", snapshot_seed(bad_version, file_size));

  auto truncated = header;
  truncated.resize(40);
  write_seed(dir, "truncated_header", snapshot_seed(truncated, file_size));
}

void write_text(const fs::path& dir, const std::string& name,
                std::string_view text) {
  write_seed(dir, name, std::vector<std::uint8_t>(text.begin(), text.end()));
}

void write_delta_seeds(const fs::path& dir) {
  // Canonical output of the project's own encoder: the parser must accept
  // every byte of it, so the fuzzer starts from the accept path.
  const std::vector<v2v::dynamic::EdgeDelta> deltas{
      {v2v::dynamic::EdgeDelta::Op::kInsert, 0, 1, 1.0, -1.0},
      {v2v::dynamic::EdgeDelta::Op::kInsert, 7, 3, 2.5, -1.0},
      {v2v::dynamic::EdgeDelta::Op::kInsert, 2, 9, 0.125, 42.0},
      {v2v::dynamic::EdgeDelta::Op::kRemove, 0, 1, 1.0, -1.0},
  };
  write_text(dir, "canonical",
             v2v::dynamic::encode_deltas(
                 std::span<const v2v::dynamic::EdgeDelta>(deltas)));
  write_text(dir, "comments", "# churn batch\n\na 1 2\nd 1 2 # undo\n");
  write_text(dir, "max_vertex", "a 4294967295 0 3.25 1e9\n");
  write_text(dir, "near_valid", "a 1 2 -1.5\nd 3\nx 0 0\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 && argc != 4) {
    std::fprintf(stderr,
                 "usage: fuzz_seed_corpus <protocol_corpus_dir> "
                 "<snapshot_corpus_dir> [delta_corpus_dir]\n");
    return 2;
  }
  const fs::path protocol_dir = argv[1];
  const fs::path snapshot_dir = argv[2];
  fs::create_directories(protocol_dir);
  fs::create_directories(snapshot_dir);
  write_protocol_seeds(protocol_dir);
  write_snapshot_seeds(snapshot_dir);
  if (argc == 4) {
    const fs::path delta_dir = argv[3];
    fs::create_directories(delta_dir);
    write_delta_seeds(delta_dir);
    std::printf("fuzz_seed_corpus: wrote seeds to %s, %s and %s\n",
                protocol_dir.c_str(), snapshot_dir.c_str(), delta_dir.c_str());
    return 0;
  }
  std::printf("fuzz_seed_corpus: wrote seeds to %s and %s\n",
              protocol_dir.c_str(), snapshot_dir.c_str());
  return 0;
}
