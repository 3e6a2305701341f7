// Snapshot v2 (section table) tests: builder round-trips through mmap and
// the buffered fallback, v1 files read as one "fmat" section, dtype-none
// snapshots that carry no float matrix, and the extended corruption matrix
// over codebook/code sections (truncations and bit flips must fail with
// the exact typed SnapshotErrorCode).
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
#include "v2v/store/format.hpp"

namespace v2v::store {
namespace {

namespace fs = std::filesystem;

class QuantSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
#if defined(__unix__) || defined(__APPLE__)
    const long uid = static_cast<long>(::getpid());
#else
    const long uid = 0;
#endif
    dir_ = fs::temp_directory_path() /
           ("v2v_quant_snapshot_test_" + std::to_string(uid) + "_" + info->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

std::vector<std::uint8_t> make_payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

embed::Embedding make_embedding(std::size_t n, std::size_t d,
                                std::uint64_t seed) {
  embed::Embedding e(n, d);
  Rng rng(seed);
  for (std::size_t v = 0; v < n; ++v) {
    for (auto& x : e.vector(v)) x = static_cast<float>(rng.next_gaussian());
  }
  return e;
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

SnapshotErrorCode open_error(const std::string& p,
                             MappedSnapshot::MapMode mode) {
  try {
    (void)MappedSnapshot::open(p, mode);
  } catch (const SnapshotError& e) {
    return e.code();
  }
  ADD_FAILURE() << "open of " << p << " did not throw SnapshotError";
  return SnapshotErrorCode::kOpenFailed;
}

const SnapshotSection* find(const MappedSnapshot& snap,
                            const std::string& name) {
  for (const auto& s : snap.sections()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST_F(QuantSnapshotTest, BuilderRoundTripsSectionsThroughMmapAndBuffered) {
  const auto codebooks = make_payload(4096, 11);
  const auto codes = make_payload(3777, 13);  // odd size: exercises padding
  const auto e = make_embedding(23, 9, 17);

  SnapshotBuilder b(23, 9);
  b.set_float_matrix(EmbeddingView::of(e));
  b.add_section("pqbk", codebooks);
  b.add_section("pqcd", codes);
  const auto p = path("quant.v2vsnap");
  b.write(p);

  for (const auto mode : {MappedSnapshot::MapMode::kAuto,
                          MappedSnapshot::MapMode::kBuffered}) {
    const auto snap = MappedSnapshot::open(p, mode);
    EXPECT_EQ(snap.header().version, kSnapshotVersionSections);
    EXPECT_EQ(snap.rows(), 23u);
    EXPECT_EQ(snap.dimensions(), 9u);
    ASSERT_EQ(snap.sections().size(), 3u);
    ASSERT_TRUE(snap.has_section("pqbk"));
    ASSERT_TRUE(snap.has_section("pqcd"));
    ASSERT_TRUE(snap.has_floats());

    const auto bk = snap.section("pqbk");
    ASSERT_EQ(bk.size(), codebooks.size());
    EXPECT_EQ(std::memcmp(bk.data(), codebooks.data(), bk.size()), 0);
    const auto cd = snap.section("pqcd");
    ASSERT_EQ(cd.size(), codes.size());
    EXPECT_EQ(std::memcmp(cd.data(), codes.data(), cd.size()), 0);

    // Payloads land 64-byte aligned so codes can be scanned as rows.
    for (const auto& s : snap.sections()) {
      EXPECT_EQ(s.offset % 64, 0u) << s.name;
    }

    const auto view = snap.float_view();
    for (std::size_t r = 0; r < 23; ++r) {
      const auto row = view.row(r);
      EXPECT_EQ(std::memcmp(row.data(), e.vector(r).data(), row.size_bytes()),
                0)
          << "row " << r;
    }
  }
}

TEST_F(QuantSnapshotTest, FloatReadersStillOpenV2WithFloats) {
  // The fixed header of a v2-with-floats file mirrors the "fmat" section:
  // the float view and its owning copy match the input with codes alongside.
  const auto e = make_embedding(12, 7, 23);
  SnapshotBuilder b(12, 7);
  b.set_float_matrix(EmbeddingView::of(e));
  b.add_section("sq8c", make_payload(12 * 7, 29));
  const auto p = path("v2float.v2vsnap");
  b.write(p);

  for (const auto mode : {MappedSnapshot::MapMode::kAuto,
                          MappedSnapshot::MapMode::kBuffered}) {
    const auto snap = MappedSnapshot::open(p, mode);
    ASSERT_TRUE(snap.has_floats());
    EXPECT_EQ(snap.header().data_offset, find(snap, "fmat")->offset);
    const embed::Embedding back{snap.float_view().to_matrix()};
    ASSERT_EQ(back.vertex_count(), 12u);
    for (std::size_t r = 0; r < 12; ++r) {
      EXPECT_EQ(std::memcmp(back.vector(r).data(), e.vector(r).data(),
                            7 * sizeof(float)),
                0);
    }
  }
}

TEST_F(QuantSnapshotTest, QuantOnlySnapshotRejectsFloatReaders) {
  SnapshotBuilder b(100, 16);
  b.add_section("sq8p", make_payload(16 * 8, 31));
  b.add_section("sq8c", make_payload(100 * 16, 37));
  const auto p = path("nofloat.v2vsnap");
  b.write(p);

  // No float matrix to read, not zero rows misread: the header says dtype
  // none, and there is no "fmat" section.
  for (const auto mode : {MappedSnapshot::MapMode::kAuto,
                          MappedSnapshot::MapMode::kBuffered}) {
    const auto snap = MappedSnapshot::open(p, mode);
    EXPECT_FALSE(snap.has_floats());
    EXPECT_FALSE(snap.has_section("fmat"));
    EXPECT_EQ(snap.header().dtype, kDtypeNone);
    EXPECT_EQ(snap.header().row_stride, 0u);
    EXPECT_EQ(snap.header().data_bytes, 0u);
    EXPECT_EQ(snap.rows(), 100u);
  }
}

TEST_F(QuantSnapshotTest, V1FileAppearsAsSyntheticFmatSection) {
  const auto e = make_embedding(9, 5, 41);
  const auto p = path("v1.v2vsnap");
  write_v1_snapshot(EmbeddingView::of(e), p);

  for (const auto mode : {MappedSnapshot::MapMode::kAuto,
                          MappedSnapshot::MapMode::kBuffered}) {
    const auto snap = MappedSnapshot::open(p, mode);
    EXPECT_EQ(snap.header().version, kSnapshotVersion);
    ASSERT_EQ(snap.sections().size(), 1u);
    const auto* fmat = find(snap, "fmat");
    ASSERT_NE(fmat, nullptr);
    EXPECT_EQ(fmat->offset, snap.header().data_offset);
    EXPECT_EQ(fmat->bytes, snap.header().data_bytes);
    ASSERT_TRUE(snap.has_floats());
    for (std::size_t r = 0; r < 9; ++r) {
      EXPECT_EQ(std::memcmp(snap.float_view().row(r).data(), e.vector(r).data(),
                            5 * sizeof(float)),
                0);
    }
  }
}

TEST_F(QuantSnapshotTest, CorruptionMatrixOverQuantSections) {
  SnapshotBuilder b(50, 8);
  b.add_section("pqbk", make_payload(2048, 43));
  b.add_section("pqcd", make_payload(50 * 4, 47));
  const auto p = path("corrupt.v2vsnap");
  b.write(p);
  const auto good = read_file(p);
  const auto snap = MappedSnapshot::open(p);
  const auto* bk = find(snap, "pqbk");
  const auto* cd = find(snap, "pqcd");
  ASSERT_NE(bk, nullptr);
  ASSERT_NE(cd, nullptr);

  for (const auto mode : {MappedSnapshot::MapMode::kAuto,
                          MappedSnapshot::MapMode::kBuffered}) {
    // Bit flip inside the codebook payload.
    auto bytes = good;
    bytes[bk->offset + bk->bytes / 2] ^= 0x10;
    write_file(p, bytes);
    EXPECT_EQ(open_error(p, mode),
              SnapshotErrorCode::kSectionChecksumMismatch);

    // Bit flip inside the packed-codes payload.
    bytes = good;
    bytes[cd->offset] ^= 0x01;
    write_file(p, bytes);
    EXPECT_EQ(open_error(p, mode),
              SnapshotErrorCode::kSectionChecksumMismatch);

    // Bit flip inside a section-table entry (offset field).
    bytes = good;
    bytes[kSnapshotHeaderBytes + 8 + 8] ^= 0x04;
    write_file(p, bytes);
    EXPECT_EQ(open_error(p, mode), SnapshotErrorCode::kBadSectionTable);

    // Truncation mid-payload: the table's range check catches it.
    bytes = good;
    bytes.resize(cd->offset + cd->bytes / 2);
    write_file(p, bytes);
    EXPECT_EQ(open_error(p, mode), SnapshotErrorCode::kBadSectionTable);

    // Truncation inside the section table itself: the fixed header's
    // promised data_offset already falls past EOF, so the earlier
    // truncated-data check fires before table parsing.
    bytes = good;
    bytes.resize(kSnapshotHeaderBytes + 12);
    write_file(p, bytes);
    EXPECT_EQ(open_error(p, mode), SnapshotErrorCode::kTruncatedData);
  }
}

}  // namespace
}  // namespace v2v::store
