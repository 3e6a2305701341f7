#include "v2v/store/format.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
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

constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;

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

[[nodiscard]] std::uint64_t align64(std::uint64_t offset) noexcept {
  return (offset + 63) & ~std::uint64_t{63};
}

/// Serializes the section table prologue + entries into a buffer (the
/// trailing table checksum is written separately). Shared by the buffering
/// and streaming writers so their bytes are identical.
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
      out.push_back({"fmat", h.data_offset, h.data_bytes, h.data_checksum});
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

}  // namespace

std::uint64_t fnv1a64_accumulate(std::uint64_t state, const void* data,
                                 std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    state ^= p[i];
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t fnv1a64(const void* data, std::size_t bytes) noexcept {
  return fnv1a64_accumulate(fnv1a64_seed(), data, bytes);
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
    case SnapshotErrorCode::kDataChecksumMismatch: return "data_checksum_mismatch";
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

SnapshotHeader read_snapshot_header(std::istream& in, const std::string& origin) {
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);

  std::uint8_t buf[kHeaderBytes];
  in.read(reinterpret_cast<char*>(buf), kHeaderBytes);
  const auto got = !in ? std::size_t{0} : static_cast<std::size_t>(in.gcount());
  return decode_snapshot_header({buf, got}, file_size, origin);
}

SnapshotHeader read_snapshot_header(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(SnapshotErrorCode::kOpenFailed, path, "cannot open");
  return read_snapshot_header(in, path);
}

bool mmap_disabled_by_env() noexcept {
  const char* env = std::getenv("V2V_STORE_NO_MMAP");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void SnapshotBuilder::set_float_matrix(const EmbeddingView& view) {
  V2V_CHECK(view.rows() == rows_ && view.dimensions() == dims_,
            "float matrix shape must match the builder's corpus shape");
  row_stride_ = MatrixF::padded_stride(dims_);
  std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(rows_ * row_stride_ * sizeof(float)), 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto row = view.row(r);
    std::memcpy(payload.data() + r * row_stride_ * sizeof(float), row.data(),
                dims_ * sizeof(float));
  }
  add_section("fmat", std::move(payload));
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
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail(SnapshotErrorCode::kOpenFailed, path, "cannot open for writing");

  // Lay out payloads: 64-byte aligned, "fmat" placed wherever it appears
  // in add order (set_float_matrix callers add it first in practice).
  const std::uint64_t entries_end =
      kSectionTableOffset + 8 + sections_.size() * kSectionEntryBytes;
  std::uint64_t cursor = align64(entries_end + 8);
  std::vector<SnapshotSection> entries;
  entries.reserve(sections_.size());
  const SnapshotSection* fmat = nullptr;
  for (const auto& [name, payload] : sections_) {
    SnapshotSection s;
    s.name = name;
    s.offset = cursor;
    s.bytes = payload.size();
    s.checksum = fnv1a64(payload.data(), payload.size());
    cursor = align64(cursor + s.bytes);
    entries.push_back(std::move(s));
    if (name == "fmat") fmat = &entries.back();
  }

  SnapshotHeader h;
  h.version = std::max(kSnapshotVersionSections, min_version_);
  h.rows = rows_;
  h.dims = dims_;
  if (fmat != nullptr) {
    h.dtype = kDtypeFloat32;
    h.row_stride = row_stride_;
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
  out.write(reinterpret_cast<const char*>(header), kHeaderBytes);

  // Section table: count + reserved, entries, then the table checksum.
  const std::vector<std::uint8_t> table = encode_section_table(entries);
  out.write(reinterpret_cast<const char*>(table.data()),
            static_cast<std::streamsize>(table.size()));
  const std::uint64_t table_checksum = fnv1a64(table.data(), table.size());
  out.write(reinterpret_cast<const char*>(&table_checksum), 8);

  // Payloads, with zero padding up to each aligned offset.
  std::uint64_t written = entries_end + 8;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::vector<char> pad(
        static_cast<std::size_t>(entries[i].offset - written), 0);
    out.write(pad.data(), static_cast<std::streamsize>(pad.size()));
    const auto& payload = sections_[i].second;
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    written = entries[i].offset + entries[i].bytes;
  }
  out.flush();
  if (!out) fail(SnapshotErrorCode::kOpenFailed, path, "write failed");
}

StreamingSnapshotWriter::StreamingSnapshotWriter(
    const std::string& path, std::vector<std::string> section_names)
    : path_(path),
      out_(path, std::ios::binary | std::ios::trunc),
      names_(std::move(section_names)) {
  if (!out_) fail(SnapshotErrorCode::kOpenFailed, path_, "cannot open for writing");
  V2V_CHECK(!names_.empty() && names_.size() <= kMaxSections,
            "StreamingSnapshotWriter: need 1..kMaxSections sections");
  for (std::size_t i = 0; i < names_.size(); ++i) {
    V2V_CHECK(!names_[i].empty() && names_[i].size() <= kSectionNameBytes,
              "section name must be 1..8 bytes");
    for (std::size_t j = 0; j < i; ++j) {
      V2V_CHECK(names_[i] != names_[j], "duplicate section name");
    }
  }
  // Reserve the header + table region (rewritten by finish) and pad up to
  // the first payload's 64-byte-aligned offset.
  const std::uint64_t entries_end =
      kSectionTableOffset + 8 + names_.size() * kSectionEntryBytes;
  section_offset_ = align64(entries_end + 8);
  const std::vector<char> zeros(static_cast<std::size_t>(section_offset_), 0);
  out_.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  cursor_ = section_offset_;
}

void StreamingSnapshotWriter::append(const void* data, std::size_t bytes) {
  V2V_CHECK(!finished_, "StreamingSnapshotWriter: append after finish");
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
  section_checksum_ = fnv1a64_accumulate(section_checksum_, data, bytes);
  section_bytes_ += bytes;
  cursor_ += bytes;
}

void StreamingSnapshotWriter::seal_current() {
  sealed_.push_back({names_[current_], section_offset_, section_bytes_,
                     section_checksum_});
  const std::uint64_t aligned = align64(cursor_);
  const std::vector<char> pad(static_cast<std::size_t>(aligned - cursor_), 0);
  out_.write(pad.data(), static_cast<std::streamsize>(pad.size()));
  cursor_ = aligned;
  section_offset_ = cursor_;
  section_bytes_ = 0;
  section_checksum_ = fnv1a64_seed();
}

void StreamingSnapshotWriter::next_section() {
  V2V_CHECK(!finished_, "StreamingSnapshotWriter: next_section after finish");
  V2V_CHECK(current_ + 1 < names_.size(),
            "StreamingSnapshotWriter: no more declared sections");
  seal_current();
  ++current_;
}

void StreamingSnapshotWriter::finish(std::uint64_t rows, std::uint64_t dims,
                                     std::uint32_t version) {
  V2V_CHECK(!finished_, "StreamingSnapshotWriter: double finish");
  V2V_CHECK(current_ + 1 == names_.size(),
            "StreamingSnapshotWriter: not every declared section was written");
  V2V_CHECK(version >= kSnapshotVersionSections &&
                version <= kSnapshotVersionTrainerState,
            "StreamingSnapshotWriter: sections need a v2+ version");
  seal_current();
  finished_ = true;

  const std::uint64_t entries_end =
      kSectionTableOffset + 8 + names_.size() * kSectionEntryBytes;
  SnapshotHeader h;
  h.version = version;
  h.dtype = kDtypeNone;
  h.rows = rows;
  h.dims = dims;
  h.row_stride = 0;
  h.data_offset = align64(entries_end + 8);
  h.data_bytes = 0;
  h.data_checksum = 0;

  std::uint8_t header[kHeaderBytes];
  encode_snapshot_header(h, header);
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(header), kHeaderBytes);
  const std::vector<std::uint8_t> table = encode_section_table(sealed_);
  out_.write(reinterpret_cast<const char*>(table.data()),
             static_cast<std::streamsize>(table.size()));
  const std::uint64_t table_checksum = fnv1a64(table.data(), table.size());
  out_.write(reinterpret_cast<const char*>(&table_checksum), 8);
  out_.flush();
  if (!out_) fail(SnapshotErrorCode::kOpenFailed, path_, "write failed");
}

MappedSnapshot MappedSnapshot::open(const std::string& path, MapMode mode) {
  const SnapshotHeader h = read_snapshot_header(path);

  MappedSnapshot out;
  out.header_ = h;

  std::uint64_t file_size = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) fail(SnapshotErrorCode::kOpenFailed, path, "cannot open");
    file_size = static_cast<std::uint64_t>(in.tellg());
  }
  out.file_bytes_ = static_cast<std::size_t>(file_size);

#if V2V_STORE_HAS_MMAP
  if (mode == MapMode::kAuto && !mmap_disabled_by_env() && file_size > 0) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      void* base =
          ::mmap(nullptr, out.file_bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (base != MAP_FAILED) {
        out.map_base_ = base;
        out.map_bytes_ = out.file_bytes_;
      }
    }
  }
#endif
  if (out.map_base_ == nullptr) {
    std::ifstream in(path, std::ios::binary);
    if (!in) fail(SnapshotErrorCode::kOpenFailed, path, "cannot open");
    out.buffer_.resize(out.file_bytes_);
    if (!out.buffer_.empty()) {
      in.read(reinterpret_cast<char*>(out.buffer_.data()),
              static_cast<std::streamsize>(out.buffer_.size()));
      if (!in) fail(SnapshotErrorCode::kTruncatedData, path, "short file read");
    }
  }

  out.sections_ = parse_section_table(out.base(), file_size, h, path);
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
      map_bytes_(std::exchange(other.map_bytes_, 0)),
      buffer_(std::move(other.buffer_)),
      file_bytes_(std::exchange(other.file_bytes_, 0)) {}

MappedSnapshot& MappedSnapshot::operator=(MappedSnapshot&& other) noexcept {
  if (this != &other) {
    reset();
    header_ = other.header_;
    sections_ = std::move(other.sections_);
    map_base_ = std::exchange(other.map_base_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    buffer_ = std::move(other.buffer_);
    file_bytes_ = std::exchange(other.file_bytes_, 0);
  }
  return *this;
}

MappedSnapshot::~MappedSnapshot() { reset(); }

void MappedSnapshot::reset() noexcept {
#if V2V_STORE_HAS_MMAP
  if (map_base_ != nullptr) ::munmap(map_base_, map_bytes_);
#endif
  map_base_ = nullptr;
  map_bytes_ = 0;
  buffer_.clear();
  sections_.clear();
}

}  // namespace v2v::store
