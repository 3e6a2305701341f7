// Corpus spool tests: RAM/spool token equality, multi-segment layouts,
// reuse of a spool directory, the buffered (no-mmap) fallback, and a
// corruption matrix asserting that every malformed spool fails with the
// exact typed SnapshotErrorCode instead of serving garbage walks.
#include "v2v/walk/corpus_spool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "v2v/graph/generators.hpp"
#include "v2v/store/format.hpp"
#include "v2v/walk/corpus_reader.hpp"

namespace v2v::walk {
namespace {

namespace fs = std::filesystem;
using store::SnapshotError;
using store::SnapshotErrorCode;

class CorpusSpoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
#if defined(__unix__) || defined(__APPLE__)
    const long uid = static_cast<long>(::getpid());
#else
    const long uid = 0;
#endif
    dir_ = (fs::temp_directory_path() /
            ("v2v_spool_test_" + std::to_string(uid) + "_" + info->name()))
               .string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] WalkConfig spool_config() const {
    WalkConfig config;
    config.walks_per_vertex = 3;
    config.walk_length = 9;
    config.spool_dir = dir_;
    return config;
  }

  /// Opens the spool and reports the typed failure code; fails the test
  /// when the open unexpectedly succeeds.
  [[nodiscard]] SnapshotErrorCode open_error() const {
    try {
      (void)SpooledCorpus::open(dir_);
    } catch (const SnapshotError& e) {
      return e.code();
    }
    ADD_FAILURE() << "open of corrupted spool " << dir_ << " did not throw";
    return SnapshotErrorCode::kOpenFailed;
  }

  std::string dir_;
};

void expect_same_walks(const Corpus& ram, const SpooledCorpus& spooled) {
  ASSERT_EQ(spooled.walk_count(), ram.walk_count());
  ASSERT_EQ(spooled.token_count(), ram.token_count());
  for (std::size_t i = 0; i < ram.walk_count(); ++i) {
    const auto expect = ram.walk(i);
    const auto got = spooled.walk(i);
    ASSERT_EQ(got.size(), expect.size()) << "walk " << i;
    for (std::size_t t = 0; t < expect.size(); ++t) {
      ASSERT_EQ(got[t], expect[t]) << "walk " << i << " token " << t;
    }
  }
}

TEST_F(CorpusSpoolTest, RoundTripMatchesInMemoryCorpus) {
  const graph::Graph g = graph::make_ring(40);
  WalkConfig config = spool_config();
  config.threads = 2;
  config.grain = 7;  // multiple segments with a ragged tail

  const Corpus ram = generate_corpus(g, config, 99);
  const SpoolStats stats = generate_corpus_spooled(g, config, 99);
  EXPECT_EQ(stats.walks, ram.walk_count());
  EXPECT_EQ(stats.tokens, ram.token_count());
  EXPECT_GT(stats.bytes_written, 0u);
  EXPECT_EQ(stats.segments, 6u);  // ceil(40 / 7)

  const SpooledCorpus spooled = SpooledCorpus::open(dir_);
  EXPECT_EQ(spooled.segment_count(), 6u);
  expect_same_walks(ram, spooled);
  EXPECT_EQ(spooled.max_token(), 39u);
  EXPECT_EQ(spooled.vertex_frequencies(g.vertex_count()),
            ram.vertex_frequencies(g.vertex_count()));
  // Frequency queries clamp to the requested vocab on both backings.
  EXPECT_EQ(spooled.vertex_frequencies(5), ram.vertex_frequencies(5));
  EXPECT_EQ(spooled.vertex_frequencies(1000), ram.vertex_frequencies(1000));
}

TEST_F(CorpusSpoolTest, ReusedDirectoryDropsStaleSegments) {
  // Spooling into a directory that holds a larger earlier spool leaves the
  // manifest and the new segments only, and reads back the RAM corpus.
  const graph::Graph g = graph::make_ring(200);
  WalkConfig config = spool_config();
  config.threads = 4;
  const SpoolStats wide = generate_corpus_spooled(g, config, 5);
  config.threads = 1;
  const SpoolStats narrow = generate_corpus_spooled(g, config, 5);
  ASSERT_LT(narrow.segments, wide.segments);

  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    files.push_back(entry.path().string());
  }
  std::vector<std::string> expected{spool_manifest_path(dir_)};
  for (std::size_t i = 0; i < narrow.segments; ++i) {
    expected.push_back(spool_segment_path(dir_, i));
  }
  std::sort(files.begin(), files.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(files, expected);
  expect_same_walks(generate_corpus(g, config, 5), SpooledCorpus::open(dir_));
}

TEST_F(CorpusSpoolTest, InMemoryCorpusAdapterMatchesWrappedCorpus) {
  // Both readers behind the same CorpusReader interface must agree with
  // the wrapped Corpus, including the default no-op prefetch.
  const graph::Graph g = graph::make_ring(25);
  const Corpus ram = generate_corpus(g, spool_config(), 13);
  const CorpusReader& base = ram;
  EXPECT_EQ(base.walk_count(), ram.walk_count());
  EXPECT_EQ(base.token_count(), ram.token_count());
  EXPECT_EQ(base.max_token(), 24u);
  EXPECT_EQ(base.vertex_frequencies(g.vertex_count()),
            ram.vertex_frequencies(g.vertex_count()));
  base.prefetch(0, base.walk_count());  // default implementation: no-op
  for (std::size_t i = 0; i < ram.walk_count(); ++i) {
    const auto a = base.walk(i);
    const auto b = ram.walk(i);
    ASSERT_EQ(0,
              std::memcmp(a.data(), b.data(),
                          b.size() * sizeof(graph::VertexId)));
  }
  const Corpus empty;
  const CorpusReader& empty_reader = empty;
  EXPECT_EQ(empty_reader.max_token(), 0u);
  EXPECT_EQ(empty_reader.token_count(), 0u);
}

TEST_F(CorpusSpoolTest, BoundedBufferFlushesMidSegment) {
  // One chunk of 4 x 700 x 100 = 280000 tokens exceeds the 1 MB buffer's
  // 262144-token flush threshold, so the segment is written in several
  // appends — the incremental-checksum path of the streaming writer.
  const graph::Graph g = graph::make_complete(4);
  WalkConfig config = spool_config();
  config.walks_per_vertex = 700;
  config.walk_length = 100;  // 70000 tokens per vertex
  config.grain = 4;          // one segment
  config.spool_buffer_mb = 1;

  const Corpus ram = generate_corpus(g, config, 7);
  (void)generate_corpus_spooled(g, config, 7);
  const SpooledCorpus spooled = SpooledCorpus::open(dir_);
  EXPECT_EQ(spooled.segment_count(), 1u);
  expect_same_walks(ram, spooled);
}

TEST_F(CorpusSpoolTest, SingletonAndShortWalksSurvive) {
  // Isolated vertices produce length-1 walks; the spool must preserve
  // ragged walk lengths exactly.
  graph::GraphBuilder builder(false);
  builder.reserve_vertices(6);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  const graph::Graph g = builder.build();
  const WalkConfig config = spool_config();

  const Corpus ram = generate_corpus(g, config, 13);
  (void)generate_corpus_spooled(g, config, 13);
  const SpooledCorpus spooled = SpooledCorpus::open(dir_);
  expect_same_walks(ram, spooled);
}

TEST_F(CorpusSpoolTest, BufferedModeServesIdenticalWalks) {
  const graph::Graph g = graph::make_ring(20);
  const WalkConfig config = spool_config();
  const Corpus ram = generate_corpus(g, config, 5);
  (void)generate_corpus_spooled(g, config, 5);

  const SpooledCorpus buffered =
      SpooledCorpus::open(dir_, store::MapMode::kBuffered);
  EXPECT_FALSE(buffered.zero_copy());
  expect_same_walks(ram, buffered);
  // prefetch is advisory and must be a safe no-op on buffered segments.
  buffered.prefetch(0, buffered.walk_count());

  const SpooledCorpus mapped = SpooledCorpus::open(dir_);
  mapped.prefetch(0, mapped.walk_count());
  mapped.prefetch(3, 4);
  expect_same_walks(ram, mapped);
}

TEST_F(CorpusSpoolTest, NoMmapEnvForcesBufferedFallback) {
  const graph::Graph g = graph::make_ring(10);
  const WalkConfig config = spool_config();
  const Corpus ram = generate_corpus(g, config, 3);
  (void)generate_corpus_spooled(g, config, 3);

  ::setenv("V2V_STORE_NO_MMAP", "1", 1);
  const SpooledCorpus spooled = SpooledCorpus::open(dir_);
  ::unsetenv("V2V_STORE_NO_MMAP");
  EXPECT_FALSE(spooled.zero_copy());
  expect_same_walks(ram, spooled);
}

TEST_F(CorpusSpoolTest, EmptySpoolDirThrowsInvalidArgument) {
  const graph::Graph g = graph::make_ring(4);
  WalkConfig config = spool_config();
  config.spool_dir.clear();
  EXPECT_THROW((void)generate_corpus_spooled(g, config, 1),
               std::invalid_argument);
}

// --- corruption matrix -----------------------------------------------------

TEST_F(CorpusSpoolTest, MissingManifestFailsOpen) {
  fs::create_directories(dir_);
  EXPECT_EQ(open_error(), SnapshotErrorCode::kOpenFailed);
}

TEST_F(CorpusSpoolTest, MissingSegmentFailsOpen) {
  const graph::Graph g = graph::make_ring(8);
  WalkConfig config = spool_config();
  config.grain = 4;  // two segments
  (void)generate_corpus_spooled(g, config, 1);
  fs::remove(spool_segment_path(dir_, 1));
  EXPECT_EQ(open_error(), SnapshotErrorCode::kOpenFailed);
}

TEST_F(CorpusSpoolTest, TruncatedSegmentFails) {
  const graph::Graph g = graph::make_ring(8);
  (void)generate_corpus_spooled(g, spool_config(), 1);
  const std::string seg = spool_segment_path(dir_, 0);
  // Cut the file roughly in half: the container pads its tail to 64-byte
  // alignment, so a small trim would only shave padding — this lands
  // mid-payload, making a section extent point past the end of the file.
  fs::resize_file(seg, fs::file_size(seg) / 2);
  EXPECT_EQ(open_error(), SnapshotErrorCode::kBadSectionTable);
}

TEST_F(CorpusSpoolTest, FlippedPayloadByteFailsChecksum) {
  const graph::Graph g = graph::make_ring(8);
  (void)generate_corpus_spooled(g, spool_config(), 1);
  const std::string seg = spool_segment_path(dir_, 0);
  // Flip a byte inside the first payload. With two sections the table
  // region ends at 72 + 8 + 2*32 + 8 = 152 and the first payload starts
  // at the next 64-byte boundary (192) — offset 200 is token data, not
  // header, table, or tail padding.
  constexpr std::streamoff kPayloadByte = 200;
  std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(kPayloadByte);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(kPayloadByte);
  f.write(&byte, 1);
  f.close();
  EXPECT_EQ(open_error(), SnapshotErrorCode::kSectionChecksumMismatch);
}

TEST_F(CorpusSpoolTest, VersionSkewFails) {
  const graph::Graph g = graph::make_ring(8);
  const SpoolStats stats = generate_corpus_spooled(g, spool_config(), 1);
  // Rewrite the manifest with a future spool format version; the
  // container itself stays valid, so this exercises the spool-level
  // version gate rather than the snapshot one.
  const std::uint64_t words[7] = {
      kSpoolFormatVersion + 41, 1, stats.walks, stats.tokens, stats.max_token,
      stats.walks,              stats.tokens};
  std::vector<std::uint8_t> smft(sizeof(words));
  std::memcpy(smft.data(), words, sizeof(words));
  std::vector<std::uint8_t> sfrq((stats.max_token + 1) * sizeof(std::uint64_t));
  store::SnapshotBuilder manifest(stats.walks, 0);
  manifest.add_section("smft", std::move(smft));
  manifest.add_section("sfrq", std::move(sfrq));
  manifest.write(spool_manifest_path(dir_));
  EXPECT_EQ(open_error(), SnapshotErrorCode::kBadVersion);
}

TEST_F(CorpusSpoolTest, SegmentShapeMismatchFails) {
  // Swap in a structurally valid segment from a different spool; the
  // manifest cross-checks must reject it.
  const graph::Graph g = graph::make_ring(8);
  WalkConfig config = spool_config();
  (void)generate_corpus_spooled(g, config, 1);

  const std::string other = dir_ + "_other";
  WalkConfig other_config = config;
  other_config.spool_dir = other;
  other_config.walks_per_vertex = 5;
  (void)generate_corpus_spooled(g, other_config, 1);
  fs::copy_file(spool_segment_path(other, 0), spool_segment_path(dir_, 0),
                fs::copy_options::overwrite_existing);
  fs::remove_all(other);
  EXPECT_EQ(open_error(), SnapshotErrorCode::kBadHeader);
}

TEST_F(CorpusSpoolTest, TamperedManifestTotalsFail) {
  const graph::Graph g = graph::make_ring(8);
  const SpoolStats stats = generate_corpus_spooled(g, spool_config(), 1);
  // A manifest whose frequency table disagrees with total_tokens must be
  // rejected before any segment is served.
  const std::uint64_t words[7] = {
      kSpoolFormatVersion, 1,           stats.walks, stats.tokens + 1,
      stats.max_token,     stats.walks, stats.tokens + 1};
  std::vector<std::uint8_t> smft(sizeof(words));
  std::memcpy(smft.data(), words, sizeof(words));
  std::vector<std::uint8_t> sfrq((stats.max_token + 1) * sizeof(std::uint64_t));
  store::SnapshotBuilder manifest(stats.walks, 0);
  manifest.add_section("smft", std::move(smft));
  manifest.add_section("sfrq", std::move(sfrq));
  manifest.write(spool_manifest_path(dir_));
  EXPECT_EQ(open_error(), SnapshotErrorCode::kBadHeader);
}

/// Writes a one-segment spool whose every container checksum is valid:
/// manifest words `smft` and frequency table `sfrq`, and a segment with
/// header rows `rows` holding `sections` in order.
void write_crafted_spool(
    const std::string& dir, const std::vector<std::uint64_t>& smft,
    const std::vector<std::uint64_t>& sfrq, std::uint64_t rows,
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections) {
  fs::create_directories(dir);
  const auto bytes_of = [](const std::vector<std::uint64_t>& words) {
    std::vector<std::uint8_t> out(words.size() * sizeof(std::uint64_t));
    std::memcpy(out.data(), words.data(), out.size());
    return out;
  };
  store::SnapshotBuilder manifest(smft[2], 0);
  manifest.add_section("smft", bytes_of(smft));
  manifest.add_section("sfrq", bytes_of(sfrq));
  manifest.write(spool_manifest_path(dir));
  store::SnapshotBuilder segment(rows, 0);
  for (auto& [name, payload] : sections) {
    segment.add_section(name, std::move(payload));
  }
  segment.write(spool_segment_path(dir, 0));
}

TEST_F(CorpusSpoolTest, WrappingSectionSizesFail) {
  // 2^61 - 1 walks and 2^62 tokens: (walks + 1) * 8 and tokens * 4 both
  // wrap to 0, so empty ctok/cofs sections would pass a plain size check.
  // The 64-byte section in front of them ends in 2^62, where a wrapped
  // offsets span would find its last entry.
  constexpr std::uint64_t kWalks = (std::uint64_t{1} << 61) - 1;
  constexpr std::uint64_t kTokens = std::uint64_t{1} << 62;
  std::vector<std::uint8_t> pad(64, 0);
  std::memcpy(pad.data() + 56, &kTokens, sizeof(kTokens));
  write_crafted_spool(dir_, {kSpoolFormatVersion, 1, kWalks, kTokens, 0, kWalks, kTokens},
                      {kTokens}, kWalks,
                      {{"pad", std::move(pad)}, {"ctok", {}}, {"cofs", {}}});
  EXPECT_EQ(open_error(), SnapshotErrorCode::kBadHeader);
}

TEST_F(CorpusSpoolTest, TokenAboveManifestMaxTokenFails) {
  // A consistent manifest (one walk, two tokens, max_token 1) over a walk
  // whose second token is far outside the vocabulary max_token promises.
  const std::vector<graph::VertexId> tokens = {0, 400000000};
  const std::vector<std::uint64_t> offsets = {0, 2};
  std::vector<std::uint8_t> ctok(tokens.size() * sizeof(graph::VertexId));
  std::memcpy(ctok.data(), tokens.data(), ctok.size());
  std::vector<std::uint8_t> cofs(offsets.size() * sizeof(std::uint64_t));
  std::memcpy(cofs.data(), offsets.data(), cofs.size());
  write_crafted_spool(dir_, {kSpoolFormatVersion, 1, 1, 2, 1, 1, 2}, {1, 1}, 1,
                      {{"ctok", std::move(ctok)}, {"cofs", std::move(cofs)}});
  EXPECT_EQ(open_error(), SnapshotErrorCode::kBadHeader);
}

}  // namespace
}  // namespace v2v::walk
