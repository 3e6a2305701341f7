// Test helper: writes a version-1 snapshot, the layout earlier builds wrote
// and readers still load. It is the builder's float-only file with the
// version set to 1, the section table region [72, data_offset) zeroed and
// the header checksum resealed, which is byte for byte what the v1 writer
// produced for the same rows.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "v2v/store/embedding_view.hpp"
#include "v2v/store/format.hpp"

namespace v2v::store {

inline void write_v1_snapshot(const EmbeddingView& view, const std::string& path) {
  SnapshotBuilder builder(view.rows(), view.dimensions());
  builder.set_float_matrix(view);
  builder.write(path);

  SnapshotHeader h = MappedSnapshot::open(path).header();
  h.version = kSnapshotVersion;
  std::vector<std::uint8_t> prefix(h.data_offset, 0);
  encode_snapshot_header(h, prefix);
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.write(reinterpret_cast<const char*>(prefix.data()),
             static_cast<std::streamsize>(prefix.size()));
}

}  // namespace v2v::store
