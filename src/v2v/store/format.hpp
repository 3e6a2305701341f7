// The snapshot file format: magic + checksummed fixed header, the v2
// named-section table, one writer (SnapshotBuilder) and one reader
// (MappedSnapshot, mmap with a buffered fallback). The embedding float
// matrix, the quantized indexes and the trainer-state store all persist
// checksummed sections through it.
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
// The writer emits v2 or v3: a checksummed section table at byte 72 (see
// SnapshotSection). v1 files (no table, rows at data_offset) come from
// earlier builds and are still read. Every malformed input fails with a
// typed SnapshotError (never UB), so corrupt files are diagnosable and the
// corruption test matrices can assert exact error codes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "v2v/common/aligned.hpp"
#include "v2v/store/embedding_view.hpp"

namespace v2v::store {

/// Version 1: the fixed header and one float region, no section table.
/// Earlier builds wrote it; it is read, never written.
inline constexpr std::uint32_t kSnapshotVersion = 1;
/// Version 2 appends a checksummed section table (float matrix, quantized
/// payloads) at byte 72; the fixed header is unchanged.
inline constexpr std::uint32_t kSnapshotVersionSections = 2;
/// Version 3 adds optional trainer/optimizer-state sections ("tsyn1",
/// "tfreq", "tlrst" — see store/trainer_state.hpp) on top of the v2
/// section machinery. The layout is byte-identical to v2; the version
/// bump only signals "this file can warm-start continued SGD", so v1/v2
/// files keep loading and v2 readers that ignore unknown sections would
/// still serve the floats.
inline constexpr std::uint32_t kSnapshotVersionTrainerState = 3;
inline constexpr std::uint16_t kDtypeFloat32 = 1;
/// v2 only: the snapshot carries no float matrix (quantized payloads
/// only); rows/dims still describe the logical shape, row_stride/data_bytes
/// are 0.
inline constexpr std::uint16_t kDtypeNone = 0;
inline constexpr std::uint16_t kEndianTag = 0x0102;

/// FNV-1a 64-bit over a byte range. Exposed so tests can forge valid
/// checksums when building corruption cases.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t bytes) noexcept;

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
/// the region the header promises. Throws a typed SnapshotError; `origin`
/// names the source in error messages. This is the single header validator
/// MappedSnapshot::open runs on untrusted bytes in either MapMode — and
/// the entry point fuzz/fuzz_snapshot.cpp drives.
[[nodiscard]] SnapshotHeader decode_snapshot_header(
    std::span<const std::uint8_t> bytes, std::uint64_t file_size,
    const std::string& origin = "<memory>");

/// Serializes `h` into a kSnapshotHeaderBytes buffer, magic and header
/// checksum included (the endian tag is stamped for this host). Inverse
/// of decode_snapshot_header; tests use it to forge headers for the
/// corruption matrices.
void encode_snapshot_header(const SnapshotHeader& h,
                            std::span<std::uint8_t> out) noexcept;

/// How a reader backs its data: kAuto maps the file (and falls back to a
/// buffered read where mmap is missing or fails), kBuffered forces the
/// owning-copy path with identical observable behaviour.
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
///                  the way a v1 header describes its float region.
struct SnapshotSection {
  std::string name;  ///< up to 8 bytes, e.g. "fmat", "pqbk", "tsyn1"
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};

/// Writes a v2 snapshot: optional float matrix plus arbitrary named
/// sections, every payload checksummed and 64-byte aligned. Named
/// sections are held in memory until `write`; the float matrix is not
/// copied.
class SnapshotBuilder {
 public:
  /// Logical corpus shape (rows x dims), independent of which payloads
  /// are attached.
  SnapshotBuilder(std::uint64_t rows, std::uint64_t dims)
      : rows_(rows), dims_(dims) {}

  /// Attaches the float matrix as the "fmat" section, in add order. The
  /// builder keeps `view`, which must stay valid until `write`; each row
  /// is zero-padded to a 64-byte multiple on disk, so mapped rows stay
  /// 64-byte aligned.
  void set_float_matrix(const EmbeddingView& view);

  /// Adds a named section (name must be 1..8 bytes and unique).
  void add_section(const std::string& name,
                   std::vector<std::uint8_t> payload);

  /// Raises the version stamped into the header (attaching trainer state
  /// requires v3 so old tools fail loudly instead of silently dropping
  /// the optimizer state on a rewrite). The builder never writes below
  /// kSnapshotVersionSections.
  void set_min_version(std::uint32_t version);

  /// Serializes everything to a temp file beside `path` and renames it
  /// over `path`: a reader that mapped the old file keeps reading the old
  /// bytes, and on failure (SnapshotError kOpenFailed) the temp file is
  /// removed and `path` is left as it was.
  void write(const std::string& path) const;

 private:
  std::uint64_t rows_;
  std::uint64_t dims_;
  EmbeddingView floats_;  ///< streamed as "fmat" when one is attached
  std::uint32_t min_version_ = kSnapshotVersionSections;
  /// In add order; "fmat" holds an empty placeholder for floats_.
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections_;
};

/// A snapshot (v1, v2 or v3) opened for serving with all sections
/// validated. With MapMode::kAuto on POSIX the whole file is mmapped
/// read-only and `section()` spans point straight into the mapping;
/// otherwise, or when mmap fails, the file is read into an owning 64-byte
/// aligned buffer. A v1 file appears as a single synthetic "fmat" section,
/// so callers can treat every version uniformly. Move-only.
class MappedSnapshot {
 public:
  using MapMode = store::MapMode;

  /// Opens and fully validates `path`: header, section table, and every
  /// section checksum (faults each page exactly once, doubling as warm-up).
  /// The header and the served bytes come from one open of `path`, so a
  /// concurrent rewrite cannot pair one file's header with another's rows.
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
  /// View over the float matrix, valid for this object's lifetime; rows
  /// are 64-byte aligned. V2V_CHECKs has_floats().
  [[nodiscard]] EmbeddingView float_view() const noexcept;
  /// True when the file is served from the mapping (no copy was made).
  [[nodiscard]] bool zero_copy() const noexcept { return map_base_ != nullptr; }

 private:
  MappedSnapshot() = default;
  void reset() noexcept;
  [[nodiscard]] const std::uint8_t* base() const noexcept;

  SnapshotHeader header_;
  std::vector<SnapshotSection> sections_;
  void* map_base_ = nullptr;  ///< non-null iff mmap-backed
  std::size_t file_bytes_ = 0;
  AlignedVector<std::uint8_t> buffer_;  ///< fallback storage
};

}  // namespace v2v::store
