// Versioned binary embedding snapshots: the at-rest format of the serving
// layer (ROADMAP: heavy query traffic needs cheap vector access; reloading
// the text format per run does not scale).
//
// The container format itself — fixed header, checksummed section table,
// mmap reader, section writer — lives in store/format.hpp. This header
// adds the embedding-level API on top:
//
//   - EmbeddingStore: save/load an embed::Embedding as a v1 snapshot
//   - MappedEmbedding: zero-copy mmap'd rows for serving
//   - text <-> snapshot converters for the word2vec format
//
// Loading is either by copy (`EmbeddingStore::load`) or zero-copy
// (`MappedEmbedding`): the mapped path hands out rows pointing straight
// into the page cache — no row memcpy — and falls back to a buffered read
// on platforms without mmap (or when V2V_STORE_NO_MMAP=1 is set, which is
// how the fallback is tested everywhere).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "v2v/common/aligned.hpp"
#include "v2v/embed/embedding.hpp"
#include "v2v/store/embedding_view.hpp"
#include "v2v/store/format.hpp"

namespace v2v::store {

class EmbeddingStore {
 public:
  /// Writes `embedding` as a snapshot at `path` (atomically overwriting is
  /// the caller's concern; this truncates in place).
  static void save(const embed::Embedding& embedding, const std::string& path);

  /// Validates and reads the whole snapshot into an owning Embedding.
  [[nodiscard]] static embed::Embedding load(const std::string& path);

  /// Validates and decodes just the fixed header (cheap metadata probe).
  [[nodiscard]] static SnapshotHeader read_header(const std::string& path);
};

/// A snapshot opened for serving. On POSIX the row region is mmapped
/// read-only and `row()` / `view()` point straight into the mapping —
/// zero-copy, pages fault in on first touch. Elsewhere (or under
/// V2V_STORE_NO_MMAP=1, or MapMode::kBuffered) the rows are read into an
/// owning 64-byte-aligned buffer with identical observable behaviour.
/// Move-only; the destructor unmaps.
class MappedEmbedding {
 public:
  using MapMode = store::MapMode;

  /// Opens and fully validates `path` (header + data checksums).
  [[nodiscard]] static MappedEmbedding open(const std::string& path,
                                            MapMode mode = MapMode::kAuto);

  MappedEmbedding(MappedEmbedding&& other) noexcept;
  MappedEmbedding& operator=(MappedEmbedding&& other) noexcept;
  MappedEmbedding(const MappedEmbedding&) = delete;
  MappedEmbedding& operator=(const MappedEmbedding&) = delete;
  ~MappedEmbedding();

  [[nodiscard]] std::size_t rows() const noexcept { return header_.rows; }
  [[nodiscard]] std::size_t dimensions() const noexcept { return header_.dims; }
  [[nodiscard]] const SnapshotHeader& header() const noexcept { return header_; }
  /// True when rows are served from the mapping (no copy was made).
  [[nodiscard]] bool zero_copy() const noexcept { return map_base_ != nullptr; }

  [[nodiscard]] std::span<const float> row(std::size_t r) const noexcept {
    return view_.row(r);
  }
  /// View valid for this object's lifetime; feed it to FlatIndex/IvfIndex.
  [[nodiscard]] EmbeddingView view() const noexcept { return view_; }

 private:
  MappedEmbedding() = default;
  void reset() noexcept;

  SnapshotHeader header_;
  EmbeddingView view_;
  void* map_base_ = nullptr;  ///< non-null iff mmap-backed
  std::size_t map_bytes_ = 0;
  AlignedVector<float> buffer_;  ///< fallback storage
};

/// Converters between the word2vec text format and the snapshot format.
void convert_text_to_snapshot(const std::string& text_path,
                              const std::string& snapshot_path);
void convert_snapshot_to_text(const std::string& snapshot_path,
                              const std::string& text_path);

}  // namespace v2v::store
