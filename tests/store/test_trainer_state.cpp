// Trainer-state snapshot sections (v3): round-trip of the full
// TrainerCheckpoint, version stamping, forward compatibility from v1/v2
// files, checksum detection of corrupted optimizer state, and rejection
// of structurally malformed sections with typed errors.
#include "v2v/store/trainer_state.hpp"

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
#include "v2v/store/embedding_view.hpp"

namespace v2v::store {
namespace {

namespace fs = std::filesystem;

class TrainerStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
#if defined(__unix__) || defined(__APPLE__)
    const long uid = static_cast<long>(::getpid());
#else
    const long uid = 0;
#endif
    dir_ = fs::temp_directory_path() /
           ("v2v_trainer_state_test_" + std::to_string(uid) + "_" + info->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

embed::TrainerCheckpoint make_checkpoint(std::size_t vocab, std::size_t dims,
                                         std::uint64_t seed) {
  embed::TrainerCheckpoint c;
  c.syn1 = MatrixF(vocab, dims);
  Rng rng(seed);
  for (std::size_t r = 0; r < vocab; ++r) {
    for (auto& x : c.syn1.row(r)) x = static_cast<float>(rng.next_gaussian());
  }
  c.frequencies.resize(vocab);
  for (auto& f : c.frequencies) f = 1 + rng.next_below(1000);
  c.tokens_processed = 123456;
  c.planned_tokens = 200000;
  c.last_lr = 0.0125;
  c.architecture = embed::Architecture::kSkipGram;
  c.objective = embed::Objective::kHierarchicalSoftmax;
  c.dimensions = dims;
  c.window = 4;
  c.negative = 7;
  c.initial_lr = 0.05;
  c.min_lr_fraction = 1e-4;
  c.subsample = 1e-3;
  c.seed = 987654321;
  c.walks_per_vertex = 12;
  c.walk_length = 33;
  c.walk_seed = 0xfeedfacecafebeefULL;
  c.refresh_rounds = 3;
  return c;
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

TEST_F(TrainerStateTest, RoundTripPreservesEveryField) {
  const auto original = make_checkpoint(20, 6, 17);
  const auto e = make_embedding(20, 6, 19);
  const auto p = path("state.v2vsnap");
  SnapshotBuilder builder(20, 6);
  builder.set_float_matrix(EmbeddingView::of(e));
  add_trainer_state(builder, original);
  builder.write(p);

  const auto snap = MappedSnapshot::open(p);
  EXPECT_EQ(snap.header().version, kSnapshotVersionTrainerState);
  ASSERT_TRUE(has_trainer_state(snap));
  const auto loaded = load_trainer_state(snap);

  ASSERT_EQ(loaded.syn1.rows(), original.syn1.rows());
  ASSERT_EQ(loaded.syn1.cols(), original.syn1.cols());
  for (std::size_t r = 0; r < loaded.syn1.rows(); ++r) {
    const auto lr = loaded.syn1.row(r), orr = original.syn1.row(r);
    ASSERT_TRUE(std::equal(lr.begin(), lr.end(), orr.begin(), orr.end()));
  }
  EXPECT_EQ(loaded.frequencies, original.frequencies);
  EXPECT_EQ(loaded.tokens_processed, original.tokens_processed);
  EXPECT_EQ(loaded.planned_tokens, original.planned_tokens);
  EXPECT_EQ(loaded.last_lr, original.last_lr);
  EXPECT_EQ(loaded.architecture, original.architecture);
  EXPECT_EQ(loaded.objective, original.objective);
  EXPECT_EQ(loaded.dimensions, original.dimensions);
  EXPECT_EQ(loaded.window, original.window);
  EXPECT_EQ(loaded.negative, original.negative);
  EXPECT_EQ(loaded.initial_lr, original.initial_lr);
  EXPECT_EQ(loaded.min_lr_fraction, original.min_lr_fraction);
  EXPECT_EQ(loaded.subsample, original.subsample);
  EXPECT_EQ(loaded.seed, original.seed);
  EXPECT_EQ(loaded.walks_per_vertex, original.walks_per_vertex);
  EXPECT_EQ(loaded.walk_length, original.walk_length);
  EXPECT_EQ(loaded.walk_seed, original.walk_seed);
  EXPECT_EQ(loaded.refresh_rounds, original.refresh_rounds);

  // The float matrix rides along untouched.
  ASSERT_TRUE(snap.has_floats());
  EXPECT_EQ(std::memcmp(snap.float_view().row(5).data(), e.vector(5).data(),
                        6 * sizeof(float)),
            0);
}

TEST_F(TrainerStateTest, PlainSnapshotStaysVersion2) {
  const auto p = path("plain.v2vsnap");
  const auto e = make_embedding(8, 4, 3);
  SnapshotBuilder builder(8, 4);
  builder.set_float_matrix(EmbeddingView::of(e));
  builder.write(p);
  const auto snap = MappedSnapshot::open(p);
  EXPECT_EQ(snap.header().version, kSnapshotVersionSections);
  EXPECT_FALSE(has_trainer_state(snap));
  EXPECT_THROW((void)load_trainer_state(snap), SnapshotError);
}

TEST_F(TrainerStateTest, ForwardCompatAcrossVersions) {
  // v1: the fixed-header file earlier builds wrote.
  const auto e = make_embedding(10, 5, 7);
  const auto p1 = path("v1.v2vsnap");
  write_v1_snapshot(EmbeddingView::of(e), p1);
  const auto s1 = MappedSnapshot::open(p1);
  EXPECT_EQ(s1.header().version, kSnapshotVersion);
  EXPECT_FALSE(has_trainer_state(s1));

  // v2: section-table file without optimizer state.
  const auto p2 = path("v2.v2vsnap");
  SnapshotBuilder b2(10, 5);
  b2.set_float_matrix(EmbeddingView::of(e));
  b2.write(p2);
  const auto s2 = MappedSnapshot::open(p2);
  EXPECT_EQ(s2.header().version, kSnapshotVersionSections);
  EXPECT_FALSE(has_trainer_state(s2));

  // v3: same file plus trainer state; every reader path still works.
  const auto p3 = path("v3.v2vsnap");
  SnapshotBuilder b3(10, 5);
  b3.set_float_matrix(EmbeddingView::of(e));
  add_trainer_state(b3, make_checkpoint(10, 5, 9));
  b3.write(p3);
  const auto s3 = MappedSnapshot::open(p3);
  EXPECT_EQ(s3.header().version, kSnapshotVersionTrainerState);
  ASSERT_TRUE(has_trainer_state(s3));
  for (const auto* snap : {&s1, &s2, &s3}) {
    ASSERT_TRUE(snap->has_floats());
    EXPECT_EQ(std::memcmp(snap->float_view().row(2).data(),
                          e.vector(2).data(), 5 * sizeof(float)),
              0);
  }
}

TEST_F(TrainerStateTest, CorruptionMatrixOverTrainerSections) {
  const auto p = path("corrupt.v2vsnap");
  const auto e = make_embedding(12, 4, 5);
  SnapshotBuilder builder(12, 4);
  builder.set_float_matrix(EmbeddingView::of(e));
  add_trainer_state(builder, make_checkpoint(12, 4, 21));
  builder.write(p);
  const auto good = read_file(p);

  std::vector<SnapshotSection> sections;
  {
    const auto snap = MappedSnapshot::open(p);
    sections = snap.sections();
  }
  for (const auto& name :
       {kSectionTrainerSyn1, kSectionTrainerFreq, kSectionTrainerLrState}) {
    const SnapshotSection* section = nullptr;
    for (const auto& s : sections) {
      if (s.name == name) section = &s;
    }
    ASSERT_NE(section, nullptr) << name;
    auto bytes = good;
    bytes[section->offset + section->bytes / 2] ^= 0x20;
    write_file(p, bytes);
    try {
      (void)MappedSnapshot::open(p);
      ADD_FAILURE() << "accepted corrupted " << name;
    } catch (const SnapshotError& err) {
      EXPECT_EQ(err.code(), SnapshotErrorCode::kSectionChecksumMismatch)
          << name;
    }
  }
}

TEST_F(TrainerStateTest, MalformedSectionsRejectedWithTypedError) {
  // Structurally valid snapshot (checksums fine) whose trainer payloads
  // lie about their shapes: load must fail kBadHeader, not crash.
  const auto valid = make_checkpoint(4, 3, 1);
  const auto p = path("malformed.v2vsnap");
  auto write_sections = [&](std::vector<std::uint8_t> syn1,
                            std::vector<std::uint8_t> freq,
                            std::vector<std::uint8_t> lr) {
    const auto e = make_embedding(4, 3, 2);
    SnapshotBuilder builder(4, 3);
    builder.set_float_matrix(EmbeddingView::of(e));
    builder.add_section(kSectionTrainerSyn1, std::move(syn1));
    builder.add_section(kSectionTrainerFreq, std::move(freq));
    builder.add_section(kSectionTrainerLrState, std::move(lr));
    builder.write(p);
  };
  // Baseline sections produced by the real encoder, for mixing.
  std::vector<std::uint8_t> good_syn1, good_freq, good_lr;
  {
    SnapshotBuilder probe(4, 3);
    add_trainer_state(probe, valid);
    probe.write(p);
    const auto snap = MappedSnapshot::open(p);
    const auto s = snap.section(kSectionTrainerSyn1);
    good_syn1.assign(s.begin(), s.end());
    const auto f = snap.section(kSectionTrainerFreq);
    good_freq.assign(f.begin(), f.end());
    const auto l = snap.section(kSectionTrainerLrState);
    good_lr.assign(l.begin(), l.end());
  }

  auto expect_bad = [&] {
    const auto snap = MappedSnapshot::open(p);
    ASSERT_TRUE(has_trainer_state(snap));
    try {
      (void)load_trainer_state(snap);
      ADD_FAILURE() << "accepted malformed trainer state";
    } catch (const SnapshotError& err) {
      EXPECT_EQ(err.code(), SnapshotErrorCode::kBadHeader);
    }
  };

  // tlrst truncated to half size.
  write_sections(good_syn1, good_freq,
                 {good_lr.begin(), good_lr.begin() + 64});
  expect_bad();

  // tlrst with an unknown format version.
  auto lr = good_lr;
  lr[0] = 99;
  write_sections(good_syn1, good_freq, lr);
  expect_bad();

  // tlrst with a bad architecture tag.
  lr = good_lr;
  lr[4] = 7;
  write_sections(good_syn1, good_freq, lr);
  expect_bad();

  // tsyn1 whose payload is one row short of its declared shape.
  auto syn1 = good_syn1;
  syn1.resize(syn1.size() - 3 * sizeof(float));
  write_sections(syn1, good_freq, good_lr);
  expect_bad();

  // tsyn1 whose dims field disagrees with tlrst.
  syn1 = good_syn1;
  syn1[8] = 9;
  write_sections(syn1, good_freq, good_lr);
  expect_bad();

  // tfreq whose count disagrees with its payload size.
  auto freq = good_freq;
  freq[0] += 1;
  write_sections(good_syn1, freq, good_lr);
  expect_bad();

  // A single missing section: not resume-capable at all.
  const auto e = make_embedding(4, 3, 2);
  SnapshotBuilder partial(4, 3);
  partial.set_float_matrix(EmbeddingView::of(e));
  partial.add_section(kSectionTrainerSyn1, good_syn1);
  partial.write(p);
  const auto snap = MappedSnapshot::open(p);
  EXPECT_FALSE(has_trainer_state(snap));
  EXPECT_THROW((void)load_trainer_state(snap), SnapshotError);
}

TEST_F(TrainerStateTest, SectionKindClassifiesEveryKnownName) {
  EXPECT_STREQ(section_kind("fmat"), "float matrix");
  EXPECT_STREQ(section_kind(kSectionTrainerSyn1), "optimizer state");
  EXPECT_STREQ(section_kind(kSectionTrainerFreq), "optimizer state");
  EXPECT_STREQ(section_kind(kSectionTrainerLrState), "optimizer state");
  EXPECT_STREQ(section_kind("pqcc"), "quantized payload");
  EXPECT_STREQ(section_kind("sq8p"), "quantized payload");
  EXPECT_STREQ(section_kind("mystery"), "unknown");
}

}  // namespace
}  // namespace v2v::store
