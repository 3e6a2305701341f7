// The snapshot *container* format, independent of what the payloads mean:
// magic + checksummed fixed header, the v2 named-section table, the mmap
// reader with buffered fallback, and the writers. This layer depends only
// on common/ so anything in the tree (the walk layer's corpus spool, the
// quantized indexes, the trainer-state store) can persist checksummed
// sections without pulling in the embedding types; store/snapshot.hpp
// layers the embedding-level API (EmbeddingStore / MappedEmbedding) on
// top.
//
// On-disk layout (all integers little-endian; see docs/ARCHITECTURE.md):
//
//   offset 0   magic      "V2VSNAP1"                      8 bytes
//          8   version    u32
//         12   dtype      u16 (1 = float32, 0 = none/sections-only)
//         14   endian     u16 (0x0102, detects byte-swapped files)
//         16   rows       u64
//         24   dims       u64
//         32   row_stride u64  floats per row on disk (>= dims)
//         40   data_offset u64 (64-byte aligned)
//         48   data_bytes  u64 (= rows * row_stride * 4, or 0)
//         56   data_checksum   u64  FNV-1a 64 over the row region
//         64   header_checksum u64  FNV-1a 64 over bytes [0, 64)
//
// v2+ files append a checksummed section table at byte 72 (see
// SnapshotSection). Every malformed input fails with a typed
// SnapshotError (never UB), so corrupt files are diagnosable and the
// corruption test matrices can assert exact error codes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "v2v/store/embedding_view.hpp"

namespace v2v::store {

inline constexpr std::uint32_t kSnapshotVersion = 1;
/// Version 2 appends a checksummed section table (quantized payloads) at
/// byte 72; the fixed header is unchanged, so v1 readers of the float
/// region keep working on v2 files that carry floats.
inline constexpr std::uint32_t kSnapshotVersionSections = 2;
/// Version 3 adds optional trainer/optimizer-state sections ("tsyn1",
/// "tfreq", "tlrst" — see store/trainer_state.hpp) on top of the v2
/// section machinery. The layout is byte-identical to v2; the version
/// bump only signals "this file can warm-start continued SGD", so v1/v2
/// files keep loading and v2 readers that ignore unknown sections would
/// still serve the floats.
inline constexpr std::uint32_t kSnapshotVersionTrainerState = 3;
inline constexpr std::uint16_t kDtypeFloat32 = 1;
/// v2 only: the snapshot carries no float matrix (quantized payloads or a
/// corpus spool segment); rows/dims still describe the logical shape,
/// row_stride/data_bytes are 0.
inline constexpr std::uint16_t kDtypeNone = 0;
inline constexpr std::uint16_t kEndianTag = 0x0102;

/// FNV-1a 64-bit over a byte range. Exposed so tests can forge valid
/// checksums when building corruption cases.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t bytes) noexcept;

/// Incremental FNV-1a 64: seed with fnv1a64_seed(), fold ranges in order
/// with fnv1a64_accumulate(). Equal to fnv1a64 over the concatenation —
/// this is how the streaming writers checksum payloads they never hold in
/// memory at once.
[[nodiscard]] constexpr std::uint64_t fnv1a64_seed() noexcept {
  return 0xcbf29ce484222325ULL;
}
[[nodiscard]] std::uint64_t fnv1a64_accumulate(std::uint64_t state, const void* data,
                                               std::size_t bytes) noexcept;

enum class SnapshotErrorCode : std::uint8_t {
  kOpenFailed,              ///< file missing or unreadable/unwritable
  kTruncatedHeader,         ///< shorter than the fixed header
  kBadMagic,                ///< not a snapshot file
  kHeaderChecksumMismatch,  ///< header bytes corrupted
  kBadVersion,              ///< written by an unknown format revision
  kBadDtype,                ///< element type this build cannot serve
  kBadEndianness,           ///< byte-swapped producer
  kBadHeader,               ///< internally inconsistent header fields
  kTruncatedData,           ///< file shorter than header promises
  kDataChecksumMismatch,    ///< row region corrupted
  kBadSectionTable,         ///< v2 section table malformed or truncated
  kSectionChecksumMismatch, ///< a section payload is corrupted
};

[[nodiscard]] const char* snapshot_error_name(SnapshotErrorCode code) noexcept;

/// Every failure of the snapshot layer throws this; `code()` makes the
/// failure mode machine-checkable (corruption matrix tests, CLI exit
/// messages).
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] SnapshotErrorCode code() const noexcept { return code_; }

 private:
  SnapshotErrorCode code_;
};

/// Throws SnapshotError with the uniform "snapshot: <origin>: <detail>
/// [<code name>]" message every reader/writer in this layer uses.
[[noreturn]] void throw_snapshot_error(SnapshotErrorCode code,
                                       const std::string& origin,
                                       const std::string& detail);

/// The product of `factors`, or SnapshotError(kBadHeader) when it wraps
/// size_t: the size a loaded section is checked against comes from
/// untrusted header fields.
[[nodiscard]] std::size_t checked_bytes(std::initializer_list<std::uint64_t> factors);

/// Decoded fixed header of a snapshot file.
struct SnapshotHeader {
  std::uint32_t version = kSnapshotVersion;
  std::uint16_t dtype = kDtypeFloat32;
  std::uint64_t rows = 0;
  std::uint64_t dims = 0;
  std::uint64_t row_stride = 0;
  std::uint64_t data_offset = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t data_checksum = 0;
};

/// Size of the fixed header on disk (magic through header_checksum).
inline constexpr std::size_t kSnapshotHeaderBytes = 72;

/// Validates and decodes the fixed header from an in-memory byte range
/// (at least the first kSnapshotHeaderBytes of a purported snapshot).
/// `file_size` is the total size of the purported file, checked against
/// the region the header promises. Throws SnapshotError with the same
/// typed codes as the file-based readers; `origin` names the source in
/// error messages. This is the single validator behind
/// read_header/load/MappedEmbedding::open for untrusted bytes — and the
/// entry point fuzz/fuzz_snapshot.cpp drives.
[[nodiscard]] SnapshotHeader decode_snapshot_header(
    std::span<const std::uint8_t> bytes, std::uint64_t file_size,
    const std::string& origin = "<memory>");

/// Serializes `h` into a kSnapshotHeaderBytes buffer, magic and header
/// checksum included (the endian tag is stamped for this host). Inverse
/// of decode_snapshot_header; tests use it to forge headers for the
/// corruption matrices.
void encode_snapshot_header(const SnapshotHeader& h,
                            std::span<std::uint8_t> out) noexcept;

/// Reads and validates the fixed header from an open binary stream,
/// leaving it positioned at byte kSnapshotHeaderBytes; `origin` names the
/// file in error messages.
[[nodiscard]] SnapshotHeader read_snapshot_header(std::istream& in,
                                                  const std::string& origin);

/// Opens `path` and validates just the fixed header (cheap metadata probe).
[[nodiscard]] SnapshotHeader read_snapshot_header(const std::string& path);

/// True when V2V_STORE_NO_MMAP is set non-empty/non-zero: every mmap-capable
/// reader then takes its buffered fallback (how that path is tested).
[[nodiscard]] bool mmap_disabled_by_env() noexcept;

/// How a reader backs its data: kAuto maps the file when the platform has
/// mmap (and the env override is unset), kBuffered forces the owning-copy
/// path with identical observable behaviour.
enum class MapMode : std::uint8_t { kAuto, kBuffered };

/// One entry of a v2 section table: a named, checksummed byte range.
///
/// v2 on-disk layout, after the unchanged 72-byte fixed header:
///
///   offset 72      section_count u32, reserved u32 (0)
///          80      section_count entries of 32 bytes each:
///                    name[8] (NUL-padded), offset u64, bytes u64,
///                    checksum u64 (FNV-1a 64 over the payload)
///          80+32n  table_checksum u64 (FNV-1a 64 over bytes [72, 80+32n))
///   payloads       each 64-byte aligned; when a float matrix is present
///                  it is the "fmat" section and the fixed header's
///                  data_offset/data_bytes/data_checksum mirror its entry,
///                  so MappedEmbedding reads v2-with-floats unchanged.
struct SnapshotSection {
  std::string name;  ///< up to 8 bytes, e.g. "fmat", "pqbk", "ctok"
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};

/// Writes a v2 snapshot: optional float matrix plus arbitrary named
/// sections, every payload checksummed and 64-byte aligned. Payloads are
/// buffered in memory until `write` — use StreamingSnapshotWriter when the
/// payloads must not be resident all at once.
class SnapshotBuilder {
 public:
  /// Logical corpus shape (rows x dims), independent of which payloads
  /// are attached.
  SnapshotBuilder(std::uint64_t rows, std::uint64_t dims)
      : rows_(rows), dims_(dims) {}

  /// Attaches the float matrix as the "fmat" section (row-padded exactly
  /// like EmbeddingStore::save, so the mmap path stays 64-byte aligned).
  void set_float_matrix(const EmbeddingView& view);

  /// Adds a named section (name must be 1..8 bytes and unique).
  void add_section(const std::string& name,
                   std::vector<std::uint8_t> payload);

  /// Raises the version stamped into the header (attaching trainer state
  /// requires v3 so old tools fail loudly instead of silently dropping
  /// the optimizer state on a rewrite). The builder never writes below
  /// kSnapshotVersionSections.
  void set_min_version(std::uint32_t version);

  /// Serializes everything to `path`.
  void write(const std::string& path) const;

 private:
  std::uint64_t rows_;
  std::uint64_t dims_;
  std::uint64_t row_stride_ = 0;  ///< nonzero iff a float matrix is attached
  std::uint32_t min_version_ = kSnapshotVersionSections;
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections_;
};

/// Streams a v2 sections-only snapshot (dtype none) to disk without ever
/// buffering a payload in memory — the writer behind the corpus spool,
/// where a segment can exceed RAM. Section names are declared up front
/// (the table layout needs the count); bytes are appended to the current
/// section and checksummed incrementally; next_section() seals one and
/// starts the next, in declared order. finish() seeks back and writes the
/// real header + table — the file is not a valid snapshot until then.
/// The emitted bytes are exactly what SnapshotBuilder would produce for
/// the same payloads, so MappedSnapshot reads both identically.
class StreamingSnapshotWriter {
 public:
  StreamingSnapshotWriter(const std::string& path,
                          std::vector<std::string> section_names);
  StreamingSnapshotWriter(const StreamingSnapshotWriter&) = delete;
  StreamingSnapshotWriter& operator=(const StreamingSnapshotWriter&) = delete;
  /// Closing without finish() leaves an invalid file on disk (deliberate:
  /// a crashed producer must not look like a complete spool segment).
  ~StreamingSnapshotWriter() = default;

  /// Appends bytes to the current section.
  void append(const void* data, std::size_t bytes);
  void append(std::span<const std::uint8_t> bytes) {
    append(bytes.data(), bytes.size());
  }

  /// Seals the current section and starts the next declared one.
  void next_section();

  /// Seals the last section and writes the fixed header (rows/dims are
  /// the logical shape stamped into it) plus the checksummed section
  /// table. Must be called with every declared section written.
  void finish(std::uint64_t rows, std::uint64_t dims,
              std::uint32_t version = kSnapshotVersionSections);

  /// Total file bytes emitted so far (header/table region included).
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return cursor_; }

 private:
  void seal_current();

  std::string path_;
  std::ofstream out_;
  std::vector<std::string> names_;
  std::vector<SnapshotSection> sealed_;
  std::size_t current_ = 0;
  std::uint64_t cursor_ = 0;          ///< absolute end-of-file offset
  std::uint64_t section_offset_ = 0;  ///< current section's start offset
  std::uint64_t section_bytes_ = 0;
  std::uint64_t section_checksum_ = fnv1a64_seed();
  bool finished_ = false;
};

/// A v2 (or v1) snapshot opened for serving with all sections validated.
/// On POSIX the whole file is mmapped read-only and `section()` spans point
/// straight into the mapping; elsewhere (or under V2V_STORE_NO_MMAP=1 /
/// MapMode kBuffered) the file is read into an owning buffer. A v1 file
/// appears as a single synthetic "fmat" section, so callers can treat both
/// versions uniformly. Move-only.
class MappedSnapshot {
 public:
  using MapMode = store::MapMode;

  /// Opens and fully validates `path`: header, section table, and every
  /// section checksum (faults each page exactly once, doubling as warm-up).
  [[nodiscard]] static MappedSnapshot open(const std::string& path,
                                           MapMode mode = MapMode::kAuto);

  MappedSnapshot(MappedSnapshot&& other) noexcept;
  MappedSnapshot& operator=(MappedSnapshot&& other) noexcept;
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;
  ~MappedSnapshot();

  [[nodiscard]] std::size_t rows() const noexcept { return header_.rows; }
  [[nodiscard]] std::size_t dimensions() const noexcept { return header_.dims; }
  [[nodiscard]] const SnapshotHeader& header() const noexcept { return header_; }
  [[nodiscard]] const std::vector<SnapshotSection>& sections() const noexcept {
    return sections_;
  }
  [[nodiscard]] bool has_section(const std::string& name) const noexcept;
  /// Checksum-verified payload bytes; throws SnapshotError(kBadHeader) if
  /// the section is absent — probe with has_section first.
  [[nodiscard]] std::span<const std::uint8_t> section(
      const std::string& name) const;

  /// True when the snapshot carries a float matrix ("fmat" / v1 rows).
  [[nodiscard]] bool has_floats() const noexcept {
    return header_.dtype == kDtypeFloat32;
  }
  /// View over the float matrix; V2V_CHECKs has_floats().
  [[nodiscard]] EmbeddingView float_view() const noexcept;
  [[nodiscard]] bool zero_copy() const noexcept { return map_base_ != nullptr; }

 private:
  MappedSnapshot() = default;
  void reset() noexcept;
  [[nodiscard]] const std::uint8_t* base() const noexcept;

  SnapshotHeader header_;
  std::vector<SnapshotSection> sections_;
  void* map_base_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::vector<std::uint8_t> buffer_;  ///< fallback storage
  std::size_t file_bytes_ = 0;
};

}  // namespace v2v::store
