#include "v2v/store/format.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>
#include <utility>
#include <vector>

#include "v2v/common/check.hpp"
#include "v2v/common/matrix.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define V2V_STORE_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define V2V_STORE_HAS_MMAP 0
#endif

namespace v2v::store {
namespace {

constexpr char kMagic[8] = {'V', '2', 'V', 'S', 'N', 'A', 'P', '1'};
constexpr std::size_t kHeaderBytes = kSnapshotHeaderBytes;

constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;

/// Folds `bytes` into a running FNV-1a 64 state: folding ranges in order
/// equals fnv1a64 over their concatenation.
[[nodiscard]] std::uint64_t fnv1a64_accumulate(std::uint64_t state, const void* data,
                                               std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    state ^= p[i];
    state *= kFnvPrime;
  }
  return state;
}

template <typename T>
void put(std::uint8_t* buf, std::size_t offset, T value) noexcept {
  std::memcpy(buf + offset, &value, sizeof(T));
}

template <typename T>
[[nodiscard]] T get(const std::uint8_t* buf, std::size_t offset) noexcept {
  T value;
  std::memcpy(&value, buf + offset, sizeof(T));
  return value;
}

[[noreturn]] void fail(SnapshotErrorCode code, const std::string& path,
                       const std::string& detail) {
  throw_snapshot_error(code, path, detail);
}

constexpr std::size_t kSectionEntryBytes = 32;
constexpr std::size_t kSectionNameBytes = 8;
constexpr std::size_t kSectionTableOffset = kHeaderBytes;
constexpr std::uint32_t kMaxSections = 1024;
constexpr char kFloatSection[] = "fmat";

[[nodiscard]] std::uint64_t align64(std::uint64_t offset) noexcept {
  return (offset + 63) & ~std::uint64_t{63};
}

/// Serializes the section table prologue + entries into a buffer (the
/// trailing table checksum is written separately).
[[nodiscard]] std::vector<std::uint8_t> encode_section_table(
    const std::vector<SnapshotSection>& entries) {
  std::vector<std::uint8_t> table(8 + entries.size() * kSectionEntryBytes, 0);
  put<std::uint32_t>(table.data(), 0, static_cast<std::uint32_t>(entries.size()));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::size_t at = 8 + i * kSectionEntryBytes;
    std::memcpy(table.data() + at, entries[i].name.data(), entries[i].name.size());
    put<std::uint64_t>(table.data(), at + 8, entries[i].offset);
    put<std::uint64_t>(table.data(), at + 16, entries[i].bytes);
    put<std::uint64_t>(table.data(), at + 24, entries[i].checksum);
  }
  return table;
}

/// Parses and validates the section table of an in-memory snapshot image.
/// v1 files have no table: a nonempty float region is surfaced as one
/// synthetic "fmat" entry. Payload checksums are NOT verified here (the
/// caller decides when to fault pages); table structure and ranges are.
std::vector<SnapshotSection> parse_section_table(const std::uint8_t* base,
                                                 std::uint64_t file_size,
                                                 const SnapshotHeader& h,
                                                 const std::string& path) {
  std::vector<SnapshotSection> out;
  if (h.version < kSnapshotVersionSections) {
    if (h.data_bytes > 0) {
      out.push_back({kFloatSection, h.data_offset, h.data_bytes, h.data_checksum});
    }
    return out;
  }
  if (file_size < kSectionTableOffset + 16) {
    fail(SnapshotErrorCode::kBadSectionTable, path,
         "file shorter than the section table prologue");
  }
  const auto count = get<std::uint32_t>(base, kSectionTableOffset);
  if (count > kMaxSections) {
    fail(SnapshotErrorCode::kBadSectionTable, path,
         "implausible section count " + std::to_string(count));
  }
  const std::uint64_t entries_end =
      kSectionTableOffset + 8 + std::uint64_t{count} * kSectionEntryBytes;
  if (file_size < entries_end + 8) {
    fail(SnapshotErrorCode::kBadSectionTable, path, "truncated section table");
  }
  const std::uint64_t table_bytes = entries_end - kSectionTableOffset;
  if (get<std::uint64_t>(base, entries_end) !=
      fnv1a64(base + kSectionTableOffset, table_bytes)) {
    fail(SnapshotErrorCode::kBadSectionTable, path,
         "section table checksum mismatch");
  }
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t at = kSectionTableOffset + 8 +
                             std::uint64_t{i} * kSectionEntryBytes;
    SnapshotSection s;
    const char* name = reinterpret_cast<const char*>(base + at);
    std::size_t len = 0;
    while (len < kSectionNameBytes && name[len] != '\0') ++len;
    s.name.assign(name, len);
    s.offset = get<std::uint64_t>(base, at + 8);
    s.bytes = get<std::uint64_t>(base, at + 16);
    s.checksum = get<std::uint64_t>(base, at + 24);
    if (s.name.empty() || s.offset < entries_end + 8 ||
        s.bytes > file_size || s.offset > file_size - s.bytes) {
      fail(SnapshotErrorCode::kBadSectionTable, path,
           "section '" + s.name + "' out of range");
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Writes `view`'s rows zero-padded to `stride` floats and returns the
/// FNV-1a 64 of the bytes written, one row in memory at a time.
std::uint64_t write_padded_rows(std::ostream& out, const EmbeddingView& view,
                                std::size_t stride) {
  std::vector<float> row(stride, 0.0f);
  const std::size_t bytes = stride * sizeof(float);
  std::uint64_t checksum = kFnvSeed;
  for (std::size_t r = 0; r < view.rows(); ++r) {
    const auto src = view.row(r);
    std::copy(src.begin(), src.end(), row.begin());
    checksum = fnv1a64_accumulate(checksum, row.data(), bytes);
    out.write(reinterpret_cast<const char*>(row.data()),
              static_cast<std::streamsize>(bytes));
  }
  return checksum;
}

/// A name in `path`'s directory that no other write, in this process or
/// another, picks at the same time.
std::string temp_path_for(const std::string& path) {
  static std::atomic<std::uint64_t> next{0};
#if V2V_STORE_HAS_MMAP
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return path + ".tmp" + std::to_string(pid) + "_" +
         std::to_string(next.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t bytes) noexcept {
  return fnv1a64_accumulate(kFnvSeed, data, bytes);
}

const char* snapshot_error_name(SnapshotErrorCode code) noexcept {
  switch (code) {
    case SnapshotErrorCode::kOpenFailed: return "open_failed";
    case SnapshotErrorCode::kTruncatedHeader: return "truncated_header";
    case SnapshotErrorCode::kBadMagic: return "bad_magic";
    case SnapshotErrorCode::kHeaderChecksumMismatch: return "header_checksum_mismatch";
    case SnapshotErrorCode::kBadVersion: return "bad_version";
    case SnapshotErrorCode::kBadDtype: return "bad_dtype";
    case SnapshotErrorCode::kBadEndianness: return "bad_endianness";
    case SnapshotErrorCode::kBadHeader: return "bad_header";
    case SnapshotErrorCode::kTruncatedData: return "truncated_data";
    case SnapshotErrorCode::kBadSectionTable: return "bad_section_table";
    case SnapshotErrorCode::kSectionChecksumMismatch: return "section_checksum_mismatch";
  }
  return "unknown";
}

void throw_snapshot_error(SnapshotErrorCode code, const std::string& origin,
                          const std::string& detail) {
  throw SnapshotError(code, "snapshot: " + origin + ": " + detail + " [" +
                                snapshot_error_name(code) + "]");
}

std::size_t checked_bytes(std::initializer_list<std::uint64_t> factors) {
  std::size_t product = 1;
  for (const std::uint64_t f : factors) {
    if (f != 0 && product > SIZE_MAX / f) {
      throw SnapshotError(SnapshotErrorCode::kBadHeader,
                          "snapshot: section size overflows size_t");
    }
    product *= static_cast<std::size_t>(f);
  }
  return product;
}

void encode_snapshot_header(const SnapshotHeader& h,
                            std::span<std::uint8_t> out) noexcept {
  V2V_CHECK(out.size() >= kHeaderBytes,
            "encode_snapshot_header: buffer shorter than the fixed header");
  std::uint8_t* buf = out.data();
  std::memcpy(buf, kMagic, sizeof(kMagic));
  put<std::uint32_t>(buf, 8, h.version);
  put<std::uint16_t>(buf, 12, h.dtype);
  put<std::uint16_t>(buf, 14, kEndianTag);
  put<std::uint64_t>(buf, 16, h.rows);
  put<std::uint64_t>(buf, 24, h.dims);
  put<std::uint64_t>(buf, 32, h.row_stride);
  put<std::uint64_t>(buf, 40, h.data_offset);
  put<std::uint64_t>(buf, 48, h.data_bytes);
  put<std::uint64_t>(buf, 56, h.data_checksum);
  put<std::uint64_t>(buf, 64, fnv1a64(buf, 64));
}

SnapshotHeader decode_snapshot_header(std::span<const std::uint8_t> bytes,
                                      std::uint64_t file_size,
                                      const std::string& origin) {
  if (bytes.size() < kHeaderBytes) {
    fail(SnapshotErrorCode::kTruncatedHeader, origin,
         "file shorter than the fixed header");
  }
  const std::uint8_t* buf = bytes.data();
  if (std::memcmp(buf, kMagic, sizeof(kMagic)) != 0) {
    fail(SnapshotErrorCode::kBadMagic, origin, "not a V2V snapshot");
  }
  if (get<std::uint64_t>(buf, 64) != fnv1a64(buf, 64)) {
    fail(SnapshotErrorCode::kHeaderChecksumMismatch, origin,
         "header checksum mismatch");
  }

  SnapshotHeader h;
  h.version = get<std::uint32_t>(buf, 8);
  h.dtype = get<std::uint16_t>(buf, 12);
  const auto endian = get<std::uint16_t>(buf, 14);
  h.rows = get<std::uint64_t>(buf, 16);
  h.dims = get<std::uint64_t>(buf, 24);
  h.row_stride = get<std::uint64_t>(buf, 32);
  h.data_offset = get<std::uint64_t>(buf, 40);
  h.data_bytes = get<std::uint64_t>(buf, 48);
  h.data_checksum = get<std::uint64_t>(buf, 56);

  if (h.version < kSnapshotVersion || h.version > kSnapshotVersionTrainerState) {
    fail(SnapshotErrorCode::kBadVersion, origin,
         "unsupported version " + std::to_string(h.version));
  }
  const bool dtype_none =
      h.dtype == kDtypeNone && h.version >= kSnapshotVersionSections;
  if (h.dtype != kDtypeFloat32 && !dtype_none) {
    fail(SnapshotErrorCode::kBadDtype, origin,
         "unsupported dtype " + std::to_string(h.dtype));
  }
  if (endian != kEndianTag) {
    fail(SnapshotErrorCode::kBadEndianness, origin,
         "byte order does not match this host");
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (dtype_none) {
    // No float region: stride and data byte count must both be zero; the
    // payloads live in the section table instead.
    if (h.row_stride != 0 || h.data_bytes != 0 ||
        h.data_offset < kHeaderBytes) {
      fail(SnapshotErrorCode::kBadHeader, origin, "inconsistent header fields");
    }
  } else if (h.row_stride < h.dims || h.data_offset < kHeaderBytes ||
             h.row_stride > kMax / sizeof(float) ||
             (h.row_stride != 0 &&
              h.rows > kMax / (h.row_stride * sizeof(float))) ||
             h.data_bytes != h.rows * h.row_stride * sizeof(float) ||
             h.data_offset > kMax - h.data_bytes) {
    fail(SnapshotErrorCode::kBadHeader, origin, "inconsistent header fields");
  }
  if (file_size < h.data_offset + h.data_bytes) {
    fail(SnapshotErrorCode::kTruncatedData, origin,
         "file shorter than header promises");
  }
  return h;
}

void SnapshotBuilder::set_float_matrix(const EmbeddingView& view) {
  V2V_CHECK(view.rows() == rows_ && view.dimensions() == dims_,
            "float matrix shape must match the builder's corpus shape");
  add_section(kFloatSection, {});
  floats_ = view;
}

void SnapshotBuilder::add_section(const std::string& name,
                                  std::vector<std::uint8_t> payload) {
  V2V_CHECK(!name.empty() && name.size() <= kSectionNameBytes,
            "section name must be 1..8 bytes");
  for (const auto& [existing, bytes] : sections_) {
    (void)bytes;
    V2V_CHECK(existing != name, "duplicate section name");
  }
  sections_.emplace_back(name, std::move(payload));
}

void SnapshotBuilder::set_min_version(std::uint32_t version) {
  V2V_CHECK(version <= kSnapshotVersionTrainerState,
            "SnapshotBuilder: version beyond what this build can write");
  min_version_ = std::max(min_version_, version);
}

void SnapshotBuilder::write(const std::string& path) const {
  V2V_CHECK(sections_.size() <= kMaxSections, "too many sections");
  const std::size_t row_stride = MatrixF::padded_stride(dims_);

  // Lay out payloads 64-byte aligned, in add order.
  const std::uint64_t entries_end =
      kSectionTableOffset + 8 + sections_.size() * kSectionEntryBytes;
  std::uint64_t cursor = align64(entries_end + 8);
  std::vector<SnapshotSection> entries;
  entries.reserve(sections_.size());
  for (const auto& [name, payload] : sections_) {
    const std::uint64_t bytes = name == kFloatSection
                                    ? rows_ * row_stride * sizeof(float)
                                    : payload.size();
    entries.push_back({name, cursor, bytes, 0});
    cursor = align64(cursor + bytes);
  }

  // Everything goes to a temp file that is renamed over `path` once it is
  // complete, so a reader that mapped the old file keeps its inode.
  const std::string tmp = temp_path_for(path);
  try {
    // Rows reach the file in 1 MiB writes, not the stream's default 8 KiB:
    // the page cache then holds the file in large folios, which a reader
    // that maps it faults in faster (after 8 KiB writes, opening a 5.6 MB
    // IVF-PQ snapshot took ~4% longer).
    std::vector<char> stream_buffer(std::size_t{1} << 20);
    std::ofstream out;
    out.rdbuf()->pubsetbuf(stream_buffer.data(),
                           static_cast<std::streamsize>(stream_buffer.size()));
    out.open(tmp, std::ios::binary | std::ios::trunc);
    if (!out) fail(SnapshotErrorCode::kOpenFailed, path, "cannot open for writing");

    // Payloads first, zero-padded up to each aligned offset and checksummed
    // as they stream; the header and table that name the checksums go in
    // last over the zeroed prefix.
    std::uint64_t written = 0;
    const SnapshotSection* fmat = nullptr;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::vector<char> pad(
          static_cast<std::size_t>(entries[i].offset - written), 0);
      out.write(pad.data(), static_cast<std::streamsize>(pad.size()));
      const auto& payload = sections_[i].second;
      if (entries[i].name == kFloatSection) {
        entries[i].checksum = write_padded_rows(out, floats_, row_stride);
        fmat = &entries[i];
      } else {
        entries[i].checksum = fnv1a64(payload.data(), payload.size());
        out.write(reinterpret_cast<const char*>(payload.data()),
                  static_cast<std::streamsize>(payload.size()));
      }
      written = entries[i].offset + entries[i].bytes;
    }

    SnapshotHeader h;
    h.version = std::max(kSnapshotVersionSections, min_version_);
    h.rows = rows_;
    h.dims = dims_;
    if (fmat != nullptr) {
      h.dtype = kDtypeFloat32;
      h.row_stride = row_stride;
      h.data_offset = fmat->offset;
      h.data_bytes = fmat->bytes;
      h.data_checksum = fmat->checksum;
    } else {
      h.dtype = kDtypeNone;
      h.row_stride = 0;
      h.data_offset = align64(entries_end + 8);
      h.data_bytes = 0;
      h.data_checksum = 0;
    }
    std::uint8_t header[kHeaderBytes];
    encode_snapshot_header(h, header);
    out.seekp(0);
    out.write(reinterpret_cast<const char*>(header), kHeaderBytes);

    // Section table: count + reserved, entries, then the table checksum.
    const std::vector<std::uint8_t> table = encode_section_table(entries);
    out.write(reinterpret_cast<const char*>(table.data()),
              static_cast<std::streamsize>(table.size()));
    const std::uint64_t table_checksum = fnv1a64(table.data(), table.size());
    out.write(reinterpret_cast<const char*>(&table_checksum), 8);
    out.close();
    if (!out) fail(SnapshotErrorCode::kOpenFailed, path, "write failed");

    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      fail(SnapshotErrorCode::kOpenFailed, path,
           "cannot replace with the written file: " + ec.message());
    }
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

MappedSnapshot MappedSnapshot::open(const std::string& path, MapMode mode) {
  MappedSnapshot out;
#if V2V_STORE_HAS_MMAP
  if (mode == MapMode::kAuto) {
    // One descriptor for the size and the mapping. Any failure here falls
    // through to the buffered read, which reports a missing file typed.
    const int fd = ::open(path.c_str(), O_RDONLY);
    struct stat st {};
    if (fd >= 0 && ::fstat(fd, &st) == 0 && st.st_size > 0) {
      const auto bytes = static_cast<std::size_t>(st.st_size);
      void* base = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
      if (base != MAP_FAILED) {
        out.map_base_ = base;
        out.file_bytes_ = bytes;
      }
    }
    if (fd >= 0) ::close(fd);  // the mapping keeps its own reference
  }
#else
  (void)mode;
#endif
  if (out.map_base_ != nullptr) {
    out.header_ = decode_snapshot_header({out.base(), out.file_bytes_},
                                         out.file_bytes_, path);
  } else {
    std::ifstream in(path, std::ios::binary);
    if (!in) fail(SnapshotErrorCode::kOpenFailed, path, "cannot open");
    in.seekg(0, std::ios::end);
    const auto file_size = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0);
    // The header is validated before a buffer is sized from the file.
    std::uint8_t head[kHeaderBytes];
    in.read(reinterpret_cast<char*>(head), kHeaderBytes);
    const auto got = !in ? std::size_t{0} : static_cast<std::size_t>(in.gcount());
    out.header_ = decode_snapshot_header({head, got}, file_size, path);
    out.file_bytes_ = static_cast<std::size_t>(file_size);
    out.buffer_.resize(out.file_bytes_);
    in.seekg(0);
    in.read(reinterpret_cast<char*>(out.buffer_.data()),
            static_cast<std::streamsize>(out.buffer_.size()));
    if (!in) fail(SnapshotErrorCode::kTruncatedData, path, "short file read");
  }
  out.sections_ = parse_section_table(out.base(), out.file_bytes_, out.header_, path);
  for (const auto& s : out.sections_) {
    const std::uint64_t checksum =
        fnv1a64(out.base() + s.offset, static_cast<std::size_t>(s.bytes));
    if (checksum != s.checksum) {
      fail(SnapshotErrorCode::kSectionChecksumMismatch, path,
           "section '" + s.name + "' checksum mismatch");
    }
  }
  return out;
}

bool MappedSnapshot::has_section(const std::string& name) const noexcept {
  for (const auto& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

std::span<const std::uint8_t> MappedSnapshot::section(
    const std::string& name) const {
  for (const auto& s : sections_) {
    if (s.name == name) {
      return {base() + s.offset, static_cast<std::size_t>(s.bytes)};
    }
  }
  fail(SnapshotErrorCode::kBadHeader, "<mapped>",
       "section '" + name + "' not present");
}

EmbeddingView MappedSnapshot::float_view() const noexcept {
  V2V_CHECK(has_floats(), "snapshot carries no float matrix");
  const auto* data =
      reinterpret_cast<const float*>(base() + header_.data_offset);
  return EmbeddingView(data, header_.rows, header_.dims, header_.row_stride);
}

const std::uint8_t* MappedSnapshot::base() const noexcept {
  return map_base_ != nullptr ? static_cast<const std::uint8_t*>(map_base_)
                              : buffer_.data();
}

MappedSnapshot::MappedSnapshot(MappedSnapshot&& other) noexcept
    : header_(other.header_),
      sections_(std::move(other.sections_)),
      map_base_(std::exchange(other.map_base_, nullptr)),
      file_bytes_(std::exchange(other.file_bytes_, 0)),
      buffer_(std::move(other.buffer_)) {}

MappedSnapshot& MappedSnapshot::operator=(MappedSnapshot&& other) noexcept {
  if (this != &other) {
    reset();
    header_ = other.header_;
    sections_ = std::move(other.sections_);
    map_base_ = std::exchange(other.map_base_, nullptr);
    file_bytes_ = std::exchange(other.file_bytes_, 0);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

MappedSnapshot::~MappedSnapshot() { reset(); }

void MappedSnapshot::reset() noexcept {
#if V2V_STORE_HAS_MMAP
  if (map_base_ != nullptr) ::munmap(map_base_, file_bytes_);
#endif
  map_base_ = nullptr;
  file_bytes_ = 0;
  buffer_.clear();
  sections_.clear();
}

}  // namespace v2v::store
