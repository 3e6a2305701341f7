// Snapshot format tests: the builder's round trip through both MapModes,
// zero-copy mapping, aligned rows, v1 files from earlier builds, rewrites
// under an open reader, and a corruption matrix asserting that every
// malformed input fails with the exact typed SnapshotErrorCode.
#include "v2v/store/format.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "v1_snapshot.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/embed/embedding.hpp"

namespace v2v::store {
namespace {

namespace fs = std::filesystem;

constexpr MapMode kModes[] = {MapMode::kAuto, MapMode::kBuffered};

embed::Embedding make_embedding(std::size_t n, std::size_t d, std::uint64_t seed) {
  embed::Embedding e(n, d);
  Rng rng(seed);
  for (std::size_t v = 0; v < n; ++v) {
    for (auto& x : e.vector(v)) x = static_cast<float>(rng.next_gaussian());
  }
  return e;
}

void write_snapshot(const embed::Embedding& e, const std::string& p) {
  SnapshotBuilder builder(e.vertex_count(), e.dimensions());
  builder.set_float_matrix(EmbeddingView::of(e));
  builder.write(p);
}

bool same_rows(const EmbeddingView& a, const embed::Embedding& b) {
  if (a.rows() != b.vertex_count() || a.dimensions() != b.dimensions()) {
    return false;
  }
  for (std::size_t v = 0; v < a.rows(); ++v) {
    const auto ra = a.row(v), rb = b.vector(v);
    if (std::memcmp(ra.data(), rb.data(), ra.size_bytes()) != 0) return false;
  }
  return true;
}

std::vector<unsigned char> read_file(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good());
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& p, const std::vector<unsigned char>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes the header checksum (over bytes [0, 64), stored at 64) so a
/// forged header passes the integrity check and reaches field validation.
void reseal_header(std::vector<unsigned char>& bytes) {
  const std::uint64_t sum = fnv1a64(bytes.data(), 64);
  std::memcpy(bytes.data() + 64, &sum, sizeof(sum));
}

SnapshotErrorCode open_error(const std::string& p, MapMode mode) {
  try {
    (void)MappedSnapshot::open(p, mode);
  } catch (const SnapshotError& e) {
    return e.code();
  }
  ADD_FAILURE() << "open of " << p << " did not throw SnapshotError";
  return SnapshotErrorCode::kOpenFailed;
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process *and* test case: ctest runs cases as parallel
    // processes, so a shared path would let one TearDown delete another
    // test's files mid-run.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
#if defined(__unix__) || defined(__APPLE__)
    const long uid = static_cast<long>(::getpid());
#else
    const long uid = 0;  // cases in one process are sequential anyway
#endif
    dir_ = fs::temp_directory_path() /
           ("v2v_snapshot_test_" + std::to_string(uid) + "_" + info->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Writes `e` as a v2 file (the builder) and as a v1 file, applies
  /// `corrupt` to each file's bytes, and expects MappedSnapshot::open to
  /// fail with `code` in both MapModes.
  template <typename Corrupt>
  void expect_typed_failure(const embed::Embedding& e, Corrupt corrupt,
                            SnapshotErrorCode code) const {
    for (const bool v1 : {false, true}) {
      const auto p = path(v1 ? "v1.v2vsnap" : "v2.v2vsnap");
      if (v1) {
        write_v1_snapshot(EmbeddingView::of(e), p);
      } else {
        write_snapshot(e, p);
      }
      auto bytes = read_file(p);
      corrupt(bytes);
      write_file(p, bytes);
      for (const auto mode : kModes) {
        EXPECT_EQ(open_error(p, mode), code)
            << (v1 ? "v1" : "v2") << " file, mode " << static_cast<int>(mode);
      }
    }
  }

  fs::path dir_;
};

TEST_F(SnapshotTest, SaveLoadRoundTripIsBitwiseExact) {
  const auto e = make_embedding(37, 19, 5);
  const auto p = path("rt.v2vsnap");
  write_snapshot(e, p);
  for (const auto mode : kModes) {
    const auto snap = MappedSnapshot::open(p, mode);
    ASSERT_TRUE(snap.has_floats());
    EXPECT_TRUE(same_rows(snap.float_view(), e));
  }
}

TEST_F(SnapshotTest, EmptyEmbeddingRoundTrips) {
  const embed::Embedding e(0, 8);
  const auto p = path("empty.v2vsnap");
  write_snapshot(e, p);
  for (const auto mode : kModes) {
    const auto snap = MappedSnapshot::open(p, mode);
    EXPECT_TRUE(snap.has_floats());
    EXPECT_EQ(snap.rows(), 0u);
    EXPECT_EQ(snap.dimensions(), 8u);
  }
}

TEST_F(SnapshotTest, ReadHeaderReportsGeometry) {
  const auto e = make_embedding(12, 10, 3);
  const auto p = path("hdr.v2vsnap");
  write_snapshot(e, p);
  for (const auto mode : kModes) {
    const auto h = MappedSnapshot::open(p, mode).header();
    EXPECT_EQ(h.version, kSnapshotVersionSections);
    EXPECT_EQ(h.dtype, kDtypeFloat32);
    EXPECT_EQ(h.rows, 12u);
    EXPECT_EQ(h.dims, 10u);
    EXPECT_GE(h.row_stride, h.dims);
    EXPECT_EQ(h.data_offset % 64, 0u);
    EXPECT_EQ(h.data_bytes, h.rows * h.row_stride * sizeof(float));
  }
}

TEST_F(SnapshotTest, MappedOpenIsZeroCopyWithAlignedRows) {
  const auto e = make_embedding(9, 17, 7);
  const auto p = path("map.v2vsnap");
  write_snapshot(e, p);
  for (const auto mode : kModes) {
    // Four readers alive at once: heap blocks of one size laid out back to
    // back start at different offsets mod 64, so a buffer that is only
    // malloc-aligned shows up in at least one of them.
    std::vector<MappedSnapshot> snaps;
    snaps.reserve(4);
    for (int i = 0; i < 4; ++i) snaps.push_back(MappedSnapshot::open(p, mode));
    for (const auto& snap : snaps) {
#if defined(__unix__) || defined(__APPLE__)
      EXPECT_EQ(snap.zero_copy(), mode == MapMode::kAuto);
#endif
      const auto view = snap.float_view();
      ASSERT_EQ(view.rows(), 9u);
      ASSERT_EQ(view.dimensions(), 17u);
      for (std::size_t v = 0; v < view.rows(); ++v) {
        const auto row = view.row(v);
        // data_offset and row_stride are both 64-byte multiples, and the
        // buffered copy is 64-byte aligned, so every row keeps the Matrix
        // alignment contract in either mode.
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(row.data()) % 64, 0u)
            << "row " << v << ", mode " << static_cast<int>(mode);
        const auto src = e.vector(v);
        EXPECT_EQ(std::memcmp(row.data(), src.data(), src.size_bytes()), 0);
      }
    }
  }
}

TEST_F(SnapshotTest, BufferedModeMatchesMapped) {
  const auto e = make_embedding(14, 6, 11);
  const auto p = path("buf.v2vsnap");
  write_snapshot(e, p);
  const auto buffered = MappedSnapshot::open(p, MapMode::kBuffered);
  EXPECT_FALSE(buffered.zero_copy());
  EXPECT_TRUE(same_rows(buffered.float_view(), e));
  EXPECT_TRUE(same_rows(MappedSnapshot::open(p).float_view(), e));
}

TEST_F(SnapshotTest, MoveTransfersOwnership) {
  const auto e = make_embedding(6, 3, 17);
  const auto p = path("move.v2vsnap");
  write_snapshot(e, p);
  for (const auto mode : kModes) {
    auto a = MappedSnapshot::open(p, mode);
    const MappedSnapshot b = std::move(a);
    EXPECT_TRUE(same_rows(b.float_view(), e));
    auto c = MappedSnapshot::open(p, mode);
    c = MappedSnapshot::open(p, mode);
    EXPECT_TRUE(same_rows(c.float_view(), e));
  }
}

// The path `v2v_query_tool convert` and `export` take: text -> builder ->
// reader -> owning copy -> text reproduces the text byte for byte.
TEST_F(SnapshotTest, TextConvertersRoundTrip) {
  const auto e = make_embedding(8, 5, 19);
  const auto text_in = path("in.txt"), snap_path = path("conv.v2vsnap"),
             text_out = path("out.txt");
  e.save_text_file(text_in);
  write_snapshot(embed::Embedding::load_text_file(text_in), snap_path);
  const auto snap = MappedSnapshot::open(snap_path);
  const embed::Embedding back{snap.float_view().to_matrix()};
  back.save_text_file(text_out);
  EXPECT_EQ(read_file(text_in), read_file(text_out));
}

// Bytes an earlier build's `convert` wrote for the 3 x 4 embedding with
// row v = (v, v + 0.25, v + 0.5, v + 0.75): the fixed header, zeros up to
// data_offset 128, then rows padded to 16 floats.
TEST_F(SnapshotTest, V1LayoutMatchesWhatEarlierBuildsWrote) {
  const char* header_hex =
      "563256534e41503101000000010002010300000000000000040000000000000010000000"
      "000000008000000000000000c0000000000000002bc7f753a34dc77815e7a9e00062e93e";
  std::vector<unsigned char> expected(128 + 3 * 16 * sizeof(float), 0);
  for (std::size_t i = 0; i < kSnapshotHeaderBytes; ++i) {
    expected[i] = static_cast<unsigned char>(
        std::stoi(std::string(header_hex + 2 * i, 2), nullptr, 16));
  }
  embed::Embedding e(3, 4);
  for (std::size_t v = 0; v < 3; ++v) {
    for (std::size_t d = 0; d < 4; ++d) {
      e.vector(v)[d] = static_cast<float>(v) + 0.25f * static_cast<float>(d);
    }
    std::memcpy(expected.data() + 128 + v * 16 * sizeof(float),
                e.vector(v).data(), 4 * sizeof(float));
  }
  const auto p = path("v1.v2vsnap");
  write_v1_snapshot(EmbeddingView::of(e), p);
  EXPECT_EQ(read_file(p), expected);
  for (const auto mode : kModes) {
    const auto snap = MappedSnapshot::open(p, mode);
    EXPECT_EQ(snap.header().version, kSnapshotVersion);
    EXPECT_TRUE(same_rows(snap.float_view(), e));
  }
}

// The builder renames a finished temp file over the target, so a reader
// that opened the old file keeps reading the old rows in either mode.
TEST_F(SnapshotTest, RewriteLeavesOpenReadersOnTheOldRows) {
  const auto before = make_embedding(300, 16, 21);
  const auto after = make_embedding(300, 16, 22);
  const auto p = path("rewrite.v2vsnap");
  for (const auto mode : kModes) {
    write_snapshot(before, p);
    const auto snap = MappedSnapshot::open(p, mode);
    write_snapshot(after, p);
    EXPECT_TRUE(same_rows(snap.float_view(), before))
        << "mode " << static_cast<int>(mode);
    EXPECT_TRUE(same_rows(MappedSnapshot::open(p, mode).float_view(), after));
  }
}

TEST_F(SnapshotTest, FailedWriteLeavesNoTempFileBehind) {
  const auto e = make_embedding(4, 3, 23);
  SnapshotBuilder builder(4, 3);
  builder.set_float_matrix(EmbeddingView::of(e));
  const auto write_error = [&](const std::string& p) {
    try {
      builder.write(p);
    } catch (const SnapshotError& err) {
      return err.code();
    }
    ADD_FAILURE() << "write to " << p << " did not throw SnapshotError";
    return SnapshotErrorCode::kBadHeader;
  };
  // A directory that does not exist cannot be written (permission bits
  // would not stop a superuser, so this is the portable unwritable case).
  EXPECT_EQ(write_error(path("missing/x.v2vsnap")), SnapshotErrorCode::kOpenFailed);
  // A target that is a directory: the temp file is written in full, the
  // rename fails, and the temp file is removed.
  fs::create_directories(dir_ / "occupied" / "child");
  EXPECT_EQ(write_error(path("occupied")), SnapshotErrorCode::kOpenFailed);
  EXPECT_TRUE(fs::is_directory(dir_ / "occupied" / "child"));
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"occupied"});
}

// ---- Corruption matrix: every case must fail with its exact typed code,
// ---- for v2 and v1 files, mapped and buffered.

TEST_F(SnapshotTest, MissingFileIsOpenFailed) {
  for (const auto mode : kModes) {
    EXPECT_EQ(open_error(path("nope.v2vsnap"), mode), SnapshotErrorCode::kOpenFailed);
  }
}

TEST_F(SnapshotTest, TruncatedHeaderIsTyped) {
  expect_typed_failure(make_embedding(4, 3, 1),
                       [](auto& bytes) { bytes.resize(20); },
                       SnapshotErrorCode::kTruncatedHeader);
  // A directory yields no header bytes, whatever length a seek reports.
  for (const auto mode : kModes) {
    EXPECT_EQ(open_error(dir_.string(), mode), SnapshotErrorCode::kTruncatedHeader);
  }
}

TEST_F(SnapshotTest, BadMagicIsTyped) {
  expect_typed_failure(make_embedding(4, 3, 2),
                       [](auto& bytes) { bytes[0] = 'X'; },
                       SnapshotErrorCode::kBadMagic);
}

TEST_F(SnapshotTest, HeaderBitflipIsChecksumMismatch) {
  // Inside the rows field, checksum NOT resealed.
  expect_typed_failure(make_embedding(4, 3, 3),
                       [](auto& bytes) { bytes[17] ^= 0x40; },
                       SnapshotErrorCode::kHeaderChecksumMismatch);
}

TEST_F(SnapshotTest, UnknownVersionIsTyped) {
  expect_typed_failure(make_embedding(4, 3, 4),
                       [](auto& bytes) {
                         const std::uint32_t version = 99;
                         std::memcpy(bytes.data() + 8, &version, sizeof(version));
                         reseal_header(bytes);
                       },
                       SnapshotErrorCode::kBadVersion);
}

TEST_F(SnapshotTest, UnknownDtypeIsTyped) {
  expect_typed_failure(make_embedding(4, 3, 5),
                       [](auto& bytes) {
                         const std::uint16_t dtype = 7;
                         std::memcpy(bytes.data() + 12, &dtype, sizeof(dtype));
                         reseal_header(bytes);
                       },
                       SnapshotErrorCode::kBadDtype);
}

TEST_F(SnapshotTest, ByteSwappedEndianTagIsTyped) {
  expect_typed_failure(make_embedding(4, 3, 6),
                       [](auto& bytes) {
                         const std::uint16_t swapped = 0x0201;
                         std::memcpy(bytes.data() + 14, &swapped, sizeof(swapped));
                         reseal_header(bytes);
                       },
                       SnapshotErrorCode::kBadEndianness);
}

TEST_F(SnapshotTest, InconsistentDimsIsBadHeader) {
  // dims > row_stride: geometrically impossible, caught before any row math.
  expect_typed_failure(make_embedding(4, 3, 7),
                       [](auto& bytes) {
                         const std::uint64_t dims = 1u << 20;
                         std::memcpy(bytes.data() + 24, &dims, sizeof(dims));
                         reseal_header(bytes);
                       },
                       SnapshotErrorCode::kBadHeader);
}

TEST_F(SnapshotTest, OverflowingRowCountIsBadHeader) {
  expect_typed_failure(make_embedding(4, 3, 8),
                       [](auto& bytes) {
                         // rows * stride * 4 wraps.
                         const std::uint64_t rows = ~std::uint64_t{0} / 2;
                         std::memcpy(bytes.data() + 16, &rows, sizeof(rows));
                         reseal_header(bytes);
                       },
                       SnapshotErrorCode::kBadHeader);
}

TEST_F(SnapshotTest, TruncatedDataIsTyped) {
  expect_typed_failure(make_embedding(8, 5, 9),
                       [](auto& bytes) { bytes.resize(bytes.size() - 16); },
                       SnapshotErrorCode::kTruncatedData);
}

TEST_F(SnapshotTest, DataBitflipIsChecksumMismatch) {
  // The float region is the "fmat" section in v2 and its synthetic twin
  // in v1: both report the section checksum.
  expect_typed_failure(make_embedding(8, 5, 10),
                       [](auto& bytes) { bytes[bytes.size() - 2] ^= 0x01; },
                       SnapshotErrorCode::kSectionChecksumMismatch);
}

// decode_snapshot_header is the in-memory validator the file reader (and
// fuzz/fuzz_snapshot.cpp) share: it must agree with MappedSnapshot::open
// on a real file and reject in-memory corruption with the same typed codes.
TEST_F(SnapshotTest, InMemoryHeaderDecodeMatchesFileReader) {
  const auto p = path("inmemory.v2vsnap");
  write_snapshot(make_embedding(6, 3, 11), p);
  const auto bytes = read_file(p);
  const SnapshotHeader from_file = MappedSnapshot::open(p).header();

  std::span<const std::uint8_t> header(bytes.data(), kSnapshotHeaderBytes);
  const SnapshotHeader decoded = decode_snapshot_header(header, bytes.size());
  EXPECT_EQ(decoded.rows, from_file.rows);
  EXPECT_EQ(decoded.dims, from_file.dims);
  EXPECT_EQ(decoded.row_stride, from_file.row_stride);
  EXPECT_EQ(decoded.data_offset, from_file.data_offset);
  EXPECT_EQ(decoded.data_bytes, from_file.data_bytes);
  EXPECT_EQ(decoded.data_checksum, from_file.data_checksum);

  const auto code_of = [&](std::span<const std::uint8_t> h, std::uint64_t sz) {
    try {
      (void)decode_snapshot_header(h, sz);
    } catch (const SnapshotError& e) {
      return e.code();
    }
    return SnapshotErrorCode::kOpenFailed;  // sentinel: "did not throw"
  };
  EXPECT_EQ(code_of(header.first(40), bytes.size()),
            SnapshotErrorCode::kTruncatedHeader);
  EXPECT_EQ(code_of(header, from_file.data_offset + from_file.data_bytes - 1),
            SnapshotErrorCode::kTruncatedData);
  auto corrupt = bytes;
  corrupt[0] ^= 0xff;
  EXPECT_EQ(code_of({corrupt.data(), kSnapshotHeaderBytes}, corrupt.size()),
            SnapshotErrorCode::kBadMagic);
  corrupt = bytes;
  corrupt[20] ^= 0x01;  // inside rows: integrity check fires first
  EXPECT_EQ(code_of({corrupt.data(), kSnapshotHeaderBytes}, corrupt.size()),
            SnapshotErrorCode::kHeaderChecksumMismatch);
}

}  // namespace
}  // namespace v2v::store
