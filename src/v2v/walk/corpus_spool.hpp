// Out-of-core corpus spool: walk generation streamed to disk segments,
// training served straight out of the mapped files.
//
// Motivation (ROADMAP "out-of-core pipeline"): at paper scale
// (t = 1000 walks of ℓ = 1000 steps per vertex) the corpus is ~4 TB per
// million vertices — it cannot be RAM-resident. The spool keeps walk
// generation's peak RSS at O(workers * spool_buffer_mb) and lets the
// trainer fault walk tokens through the page cache instead.
//
// On-disk layout under a spool directory (all files are v2 snapshot
// containers from store/format.hpp — checksummed header + named
// sections, so the corruption story is the snapshot corruption story):
//
//   manifest.v2vspool   sections "smft" + "sfrq"
//     smft: u64[5 + 2*segments] =
//           {spool_version, segment_count, total_walks, total_tokens,
//            max_token, then per segment {walks, tokens}}
//     sfrq: u64[max_token + 1] token occurrence counts (absent tokens 0;
//           empty when the corpus has no tokens) — lets the trainer build
//           its negative-sampling table without rescanning the spool
//   seg-<i>.v2vseg      sections "ctok" + "cofs", one per generation chunk
//     ctok: u32[tokens]      walk tokens (VertexId), concatenated
//     cofs: u64[walks + 1]   walk boundaries into ctok, starting at 0
//
// Determinism: generate_corpus_spooled runs on generate_corpus's walk
// driver (CorpusDriver: same split, same per-vertex RNG streams) and
// writes one segment per chunk where the RAM corpus keeps one shard;
// SpooledCorpus serves walks in chunk-index order — so walk i's tokens are
// identical to the in-RAM corpus's walk i, and a fixed-seed training run
// is bit-identical across the two backings. SpooledCorpus::open checks
// every size and token against the manifest, so a spool whose checksums
// hold but whose counts lie fails with kBadHeader instead of serving
// walks out of bounds.
//
// with_corpus is the one place a caller picks between the two backings:
// learn_embedding and every dynamic::RefreshSession round hand it a
// training callback and get the corpus's totals back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "v2v/store/format.hpp"
#include "v2v/walk/corpus_reader.hpp"
#include "v2v/walk/walker.hpp"

namespace v2v::walk {

/// Version stamped into the manifest "smft" section (the container's own
/// version stays kSnapshotVersionSections).
inline constexpr std::uint64_t kSpoolFormatVersion = 1;

/// Paths inside a spool directory.
[[nodiscard]] std::string spool_manifest_path(const std::string& dir);
[[nodiscard]] std::string spool_segment_path(const std::string& dir,
                                             std::size_t index);

/// What generate_corpus_spooled wrote (bench sidecars export these).
struct SpoolStats {
  std::uint64_t segments = 0;
  std::uint64_t walks = 0;
  std::uint64_t tokens = 0;
  std::uint64_t max_token = 0;
  std::uint64_t bytes_written = 0;  ///< segment + manifest file bytes
};

/// Runs generate_corpus's walk driver but streams every chunk's walks into
/// `config.spool_dir/seg-<chunk>` through a bounded buffer
/// (config.spool_buffer_mb) instead of holding the corpus in RAM, then
/// writes the manifest. Records the same walk.* telemetry as
/// generate_corpus plus the spool.* gauges. The directory is created
/// if needed; pre-existing spool files are overwritten. Throws
/// std::invalid_argument when config.spool_dir is empty and
/// store::SnapshotError on I/O failure.
SpoolStats generate_corpus_spooled(const graph::Graph& g,
                                   const WalkConfig& config,
                                   std::uint64_t seed);

/// What with_corpus generated.
struct CorpusRun {
  std::size_t walks = 0;
  std::size_t tokens = 0;
  double walk_seconds = 0.0;  ///< generation only, not `use`
};

/// Generates the corpus of (g, config, seed), hands it to `use` and drops
/// it. With config.spool_dir set the walks go to a spool there (which
/// stays on disk) and `use` reads the mapped SpooledCorpus; otherwise
/// `use` reads the generate_corpus result, freed on return. Either way
/// the reader serves the same walks in the same order.
CorpusRun with_corpus(const graph::Graph& g, const WalkConfig& config,
                      std::uint64_t seed,
                      const std::function<void(const CorpusReader&)>& use);

/// A spool directory opened for training: every segment is validated
/// (container checksums) and served zero-copy when mmap is available,
/// through owning buffers otherwise (V2V_STORE_NO_MMAP=1 or
/// MapMode::kBuffered force the latter). walk(i) is a span into the
/// mapping — no per-walk copies. Move-only.
class SpooledCorpus final : public CorpusReader {
 public:
  [[nodiscard]] static SpooledCorpus open(
      const std::string& dir,
      store::MapMode mode = store::MapMode::kAuto);

  SpooledCorpus(SpooledCorpus&&) noexcept = default;
  SpooledCorpus& operator=(SpooledCorpus&&) noexcept = default;

  [[nodiscard]] std::size_t walk_count() const noexcept override {
    return total_walks_;
  }
  [[nodiscard]] std::size_t token_count() const noexcept override {
    return total_tokens_;
  }
  [[nodiscard]] std::span<const graph::VertexId> walk(
      std::size_t i) const noexcept override;
  [[nodiscard]] graph::VertexId max_token() const noexcept override {
    return max_token_;
  }
  [[nodiscard]] std::vector<std::uint64_t> vertex_frequencies(
      std::size_t vocab) const override;
  /// madvise(WILLNEED)s the token bytes of walks [begin, end) on mapped
  /// segments so the trainer's next chunk streams from warmed pages.
  void prefetch(std::size_t begin, std::size_t end) const override;

  [[nodiscard]] std::size_t segment_count() const noexcept {
    return segments_.size();
  }
  /// True when every segment is served from an mmap (no owning copies).
  [[nodiscard]] bool zero_copy() const noexcept;

 private:
  struct Segment {
    store::MappedSnapshot snap;
    std::span<const graph::VertexId> tokens;
    std::span<const std::uint64_t> offsets;  ///< walks + 1 entries
    std::size_t first_walk = 0;  ///< global index of this segment's walk 0
  };

  SpooledCorpus() = default;

  std::vector<Segment> segments_;
  std::vector<std::uint64_t> freq_;  ///< manifest "sfrq", size max_token+1
  std::size_t total_walks_ = 0;
  std::size_t total_tokens_ = 0;
  graph::VertexId max_token_ = 0;
};

}  // namespace v2v::walk
