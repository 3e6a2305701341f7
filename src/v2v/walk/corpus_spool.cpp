#include "v2v/walk/corpus_spool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "v2v/common/timer.hpp"
#include "v2v/obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace v2v::walk {
namespace {

using store::SnapshotErrorCode;

constexpr std::size_t kSmftFixedWords = 5;

void put_u64s(std::vector<std::uint8_t>& out, const std::uint64_t* words,
              std::size_t count) {
  const std::size_t base = out.size();
  out.resize(base + count * sizeof(std::uint64_t));
  std::memcpy(out.data() + base, words, count * sizeof(std::uint64_t));
}

[[nodiscard]] std::uint64_t get_u64(std::span<const std::uint8_t> bytes,
                                    std::size_t word) {
  std::uint64_t value = 0;
  std::memcpy(&value, bytes.data() + word * sizeof(std::uint64_t),
              sizeof(std::uint64_t));
  return value;
}

/// Removes the `seg-<i>.v2vseg` files with i >= `chunks` that an earlier,
/// larger spool left in `dir`; the new manifest names none of them, so a
/// file that cannot be removed only wastes disk.
void remove_stale_segments(const std::string& dir, std::size_t chunks) {
  constexpr std::string_view kPrefix = "seg-";
  constexpr std::string_view kSuffix = ".v2vseg";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(kPrefix) || !name.ends_with(kSuffix)) continue;
    const char* const first = name.data() + kPrefix.size();
    const char* const last = name.data() + name.size() - kSuffix.size();
    std::size_t index = 0;
    const auto [end, error] = std::from_chars(first, last, index);
    if (error == std::errc{} && end == last && index >= chunks) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

}  // namespace

std::string spool_manifest_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "manifest.v2vspool").string();
}

std::string spool_segment_path(const std::string& dir, std::size_t index) {
  return (std::filesystem::path(dir) / ("seg-" + std::to_string(index) + ".v2vseg"))
      .string();
}

SpoolStats generate_corpus_spooled(const graph::Graph& g,
                                   const WalkConfig& config,
                                   std::uint64_t seed) {
  if (config.spool_dir.empty()) {
    throw std::invalid_argument(
        "generate_corpus_spooled: config.spool_dir must be set");
  }
  const obs::ScopedTimer span(config.metrics, "walk");
  // One spool segment per chunk of the driver's split, so the
  // concatenation of segments in chunk order is the in-RAM corpus.
  const CorpusDriver driver(g.vertex_count(), config, seed);
  std::error_code ec;
  std::filesystem::create_directories(config.spool_dir, ec);
  if (ec) {
    store::throw_snapshot_error(SnapshotErrorCode::kOpenFailed, config.spool_dir,
                                "cannot create spool directory: " + ec.message());
  }

  const Walker walker(g, config);
  const auto walk_from = std::bind_front(&Walker::walk_from, &walker);
  const std::size_t n = g.vertex_count();
  const std::size_t chunks = driver.chunks();
  const std::size_t buffer_mb =
      config.spool_buffer_mb != 0 ? config.spool_buffer_mb : 64;
  const std::size_t flush_tokens = std::max<std::size_t>(
      config.walk_length, buffer_mb * (1u << 20) / sizeof(graph::VertexId));

  // Token frequencies accumulate per worker (u64 addition commutes, so
  // the merged table is schedule-independent); tokens are vertex ids < n.
  std::vector<std::vector<std::uint64_t>> worker_freq(
      driver.workers(), std::vector<std::uint64_t>(n, 0));
  std::vector<std::uint64_t> seg_walks(chunks, 0), seg_tokens(chunks, 0),
      seg_bytes(chunks, 0);
  std::vector<std::exception_ptr> errors(chunks);
  std::atomic<bool> failed{false};

  driver.run([&](const WalkChunk& chunk) -> std::size_t {
    if (failed.load(std::memory_order_relaxed)) return 0;
    try {
      store::StreamingSnapshotWriter writer(
          spool_segment_path(config.spool_dir, chunk.index), {"ctok", "cofs"});
      std::vector<std::uint64_t>& freq = worker_freq[chunk.worker];
      const std::size_t walks = (chunk.end - chunk.begin) * config.walks_per_vertex;
      std::vector<std::uint64_t> offsets;
      offsets.reserve(walks + 1);
      offsets.push_back(0);
      std::vector<graph::VertexId> tokbuf;
      tokbuf.reserve(std::min(flush_tokens, walks * config.walk_length) +
                     config.walk_length);
      driver.walk_chunk(walk_from, chunk, [&](std::span<const graph::VertexId> walk) {
        for (const graph::VertexId token : walk) ++freq[token];
        tokbuf.insert(tokbuf.end(), walk.begin(), walk.end());
        offsets.push_back(offsets.back() + walk.size());
        if (tokbuf.size() >= flush_tokens) {
          writer.append(tokbuf.data(), tokbuf.size() * sizeof(graph::VertexId));
          tokbuf.clear();
        }
      });
      if (!tokbuf.empty()) {
        writer.append(tokbuf.data(), tokbuf.size() * sizeof(graph::VertexId));
      }
      writer.next_section();
      writer.append(offsets.data(), offsets.size() * sizeof(std::uint64_t));
      writer.finish(offsets.size() - 1, 0);
      seg_walks[chunk.index] = offsets.size() - 1;
      seg_tokens[chunk.index] = offsets.back();
      seg_bytes[chunk.index] = writer.bytes_written();
      return offsets.back();
    } catch (...) {
      errors[chunk.index] = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
      return 0;
    }
  });
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  std::vector<std::uint64_t> freq(n, 0);
  for (const auto& wf : worker_freq) {
    for (std::size_t v = 0; v < n; ++v) freq[v] += wf[v];
  }
  SpoolStats stats;
  stats.segments = chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    stats.walks += seg_walks[c];
    stats.tokens += seg_tokens[c];
    stats.bytes_written += seg_bytes[c];
  }
  std::size_t freq_len = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (freq[v] != 0) freq_len = v + 1;
  }
  stats.max_token = freq_len == 0 ? 0 : freq_len - 1;

  std::vector<std::uint8_t> smft;
  const std::uint64_t fixed[kSmftFixedWords] = {kSpoolFormatVersion, chunks,
                                                stats.walks, stats.tokens,
                                                stats.max_token};
  put_u64s(smft, fixed, kSmftFixedWords);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::uint64_t per_seg[2] = {seg_walks[c], seg_tokens[c]};
    put_u64s(smft, per_seg, 2);
  }
  std::vector<std::uint8_t> sfrq;
  if (stats.tokens > 0) put_u64s(sfrq, freq.data(), freq_len);

  store::SnapshotBuilder manifest(stats.walks, 0);
  manifest.add_section("smft", std::move(smft));
  manifest.add_section("sfrq", std::move(sfrq));
  const std::string manifest_path = spool_manifest_path(config.spool_dir);
  manifest.write(manifest_path);
  stats.bytes_written += std::filesystem::file_size(manifest_path, ec);
  remove_stale_segments(config.spool_dir, chunks);

  if (config.metrics != nullptr) {
    auto& m = *config.metrics;
    m.gauge("spool.segments").set(static_cast<double>(stats.segments));
    m.gauge("spool.bytes_written").set(static_cast<double>(stats.bytes_written));
    m.gauge("spool.buffer_mb").set(static_cast<double>(buffer_mb));
  }
  return stats;
}

CorpusRun with_corpus(const graph::Graph& g, const WalkConfig& config,
                      std::uint64_t seed,
                      const std::function<void(const CorpusReader&)>& use) {
  const WallTimer timer;
  if (config.spool_dir.empty()) {
    const Corpus corpus = generate_corpus(g, config, seed);
    const CorpusRun run{corpus.walk_count(), corpus.token_count(), timer.seconds()};
    use(corpus);
    return run;
  }
  const SpoolStats stats = generate_corpus_spooled(g, config, seed);
  const CorpusRun run{stats.walks, stats.tokens, timer.seconds()};
  use(SpooledCorpus::open(config.spool_dir));
  return run;
}

SpooledCorpus SpooledCorpus::open(const std::string& dir, store::MapMode mode) {
  const std::string manifest_path = spool_manifest_path(dir);
  SpooledCorpus out;
  std::uint64_t segment_count = 0;
  std::vector<std::uint64_t> seg_walks, seg_tokens;
  {
    const store::MappedSnapshot manifest =
        store::MappedSnapshot::open(manifest_path, mode);
    const auto smft = manifest.section("smft");
    if (smft.size() < kSmftFixedWords * sizeof(std::uint64_t) ||
        smft.size() % sizeof(std::uint64_t) != 0) {
      store::throw_snapshot_error(SnapshotErrorCode::kBadHeader, manifest_path,
                                  "spool meta section too short");
    }
    const std::uint64_t version = get_u64(smft, 0);
    if (version != kSpoolFormatVersion) {
      store::throw_snapshot_error(
          SnapshotErrorCode::kBadVersion, manifest_path,
          "spool format version " + std::to_string(version) +
              " (this build reads " + std::to_string(kSpoolFormatVersion) + ")");
    }
    segment_count = get_u64(smft, 1);
    out.total_walks_ = get_u64(smft, 2);
    out.total_tokens_ = get_u64(smft, 3);
    const std::uint64_t max_token = get_u64(smft, 4);
    // Expected section sizes come from these untrusted words, so each is
    // computed with checked_bytes (kBadHeader where it would wrap).
    if (smft.size() - kSmftFixedWords * sizeof(std::uint64_t) !=
        store::checked_bytes({segment_count, 2, sizeof(std::uint64_t)})) {
      store::throw_snapshot_error(SnapshotErrorCode::kBadHeader, manifest_path,
                                  "spool meta size disagrees with segment count");
    }
    if (max_token > std::numeric_limits<graph::VertexId>::max()) {
      store::throw_snapshot_error(SnapshotErrorCode::kBadHeader, manifest_path,
                                  "spool max_token is not a vertex id");
    }
    seg_walks.reserve(segment_count);
    seg_tokens.reserve(segment_count);
    for (std::uint64_t c = 0; c < segment_count; ++c) {
      seg_walks.push_back(get_u64(smft, kSmftFixedWords + 2 * c));
      seg_tokens.push_back(get_u64(smft, kSmftFixedWords + 2 * c + 1));
    }

    const auto sfrq = manifest.section("sfrq");
    const std::size_t expect_freq =
        out.total_tokens_ == 0 ? 0 : static_cast<std::size_t>(max_token) + 1;
    if (sfrq.size() != store::checked_bytes({expect_freq, sizeof(std::uint64_t)})) {
      store::throw_snapshot_error(SnapshotErrorCode::kBadHeader, manifest_path,
                                  "spool frequency table size mismatch");
    }
    out.freq_.resize(expect_freq);
    if (expect_freq > 0) std::memcpy(out.freq_.data(), sfrq.data(), sfrq.size());
    out.max_token_ = static_cast<graph::VertexId>(max_token);
    std::uint64_t freq_total = 0;
    for (const std::uint64_t f : out.freq_) freq_total += f;
    if (freq_total != out.total_tokens_) {
      store::throw_snapshot_error(SnapshotErrorCode::kBadHeader, manifest_path,
                                  "spool frequency table does not sum to "
                                  "total tokens");
    }
  }

  out.segments_.reserve(segment_count);
  std::uint64_t walks_seen = 0, tokens_seen = 0;
  for (std::uint64_t c = 0; c < segment_count; ++c) {
    const std::string path = spool_segment_path(dir, c);
    store::MappedSnapshot snap = store::MappedSnapshot::open(path, mode);
    const auto ctok = snap.section("ctok");
    const auto cofs = snap.section("cofs");
    // cofs holds seg_walks + 1 offsets; comparing the bytes after the
    // first one keeps that + 1 from wrapping too.
    if (ctok.size() != store::checked_bytes({seg_tokens[c], sizeof(graph::VertexId)}) ||
        cofs.size() < sizeof(std::uint64_t) ||
        cofs.size() - sizeof(std::uint64_t) !=
            store::checked_bytes({seg_walks[c], sizeof(std::uint64_t)}) ||
        snap.rows() != seg_walks[c]) {
      store::throw_snapshot_error(SnapshotErrorCode::kBadHeader, path,
                                  "segment shape disagrees with spool manifest");
    }
    // The spans stay valid across the move below: both the mmap base and
    // the fallback buffer's storage are stable under MappedSnapshot moves.
    const std::span<const graph::VertexId> tokens{
        reinterpret_cast<const graph::VertexId*>(ctok.data()),
        static_cast<std::size_t>(seg_tokens[c])};
    const std::span<const std::uint64_t> offsets{
        reinterpret_cast<const std::uint64_t*>(cofs.data()),
        static_cast<std::size_t>(seg_walks[c] + 1)};
    if (offsets.front() != 0 || offsets.back() != seg_tokens[c] ||
        !std::is_sorted(offsets.begin(), offsets.end())) {
      store::throw_snapshot_error(SnapshotErrorCode::kBadHeader, path,
                                  "segment offsets malformed");
    }
    // The trainer sizes its vocabulary by max_token(), so a token above
    // it would index past every per-vertex table.
    if (std::any_of(tokens.begin(), tokens.end(),
                    [&](graph::VertexId t) { return t > out.max_token_; })) {
      store::throw_snapshot_error(SnapshotErrorCode::kBadHeader, path,
                                  "segment token exceeds the manifest's max_token");
    }
    out.segments_.push_back(Segment{std::move(snap), tokens, offsets,
                                    static_cast<std::size_t>(walks_seen)});
    walks_seen += seg_walks[c];
    tokens_seen += seg_tokens[c];
  }
  if (walks_seen != out.total_walks_ || tokens_seen != out.total_tokens_) {
    store::throw_snapshot_error(SnapshotErrorCode::kBadHeader, manifest_path,
                                "segment totals disagree with spool manifest");
  }
  return out;
}

std::span<const graph::VertexId> SpooledCorpus::walk(
    std::size_t i) const noexcept {
  // Last segment with first_walk <= i (empty segments share their
  // successor's first_walk; picking the last lands on the owner).
  std::size_t lo = 0, hi = segments_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (segments_[mid].first_walk <= i) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  const Segment& seg = segments_[lo];
  const std::size_t local = i - seg.first_walk;
  const std::uint64_t b = seg.offsets[local];
  const std::uint64_t e = seg.offsets[local + 1];
  return {seg.tokens.data() + b, static_cast<std::size_t>(e - b)};
}

std::vector<std::uint64_t> SpooledCorpus::vertex_frequencies(
    std::size_t vocab) const {
  std::vector<std::uint64_t> out(vocab, 0);
  const std::size_t n = std::min(vocab, freq_.size());
  std::copy(freq_.begin(), freq_.begin() + static_cast<std::ptrdiff_t>(n),
            out.begin());
  return out;
}

void SpooledCorpus::prefetch(std::size_t begin, std::size_t end) const {
#if defined(__unix__) || defined(__APPLE__)
  end = std::min(end, total_walks_);
  if (begin >= end || segments_.empty()) return;
  const long page_long = ::sysconf(_SC_PAGESIZE);
  if (page_long <= 0) return;
  const auto page = static_cast<std::uintptr_t>(page_long);
  // Find the segment owning `begin`, then advance while segments overlap.
  std::size_t s = 0;
  {
    std::size_t lo = 0, hi = segments_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi + 1) / 2;
      if (segments_[mid].first_walk <= begin) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    s = lo;
  }
  for (; s < segments_.size() && segments_[s].first_walk < end; ++s) {
    const Segment& seg = segments_[s];
    if (!seg.snap.zero_copy()) continue;  // buffered copy is already resident
    const std::size_t seg_walks = seg.offsets.size() - 1;
    const std::size_t lo = std::max(begin, seg.first_walk) - seg.first_walk;
    const std::size_t hi = std::min(end, seg.first_walk + seg_walks) - seg.first_walk;
    if (lo >= hi) continue;
    const std::uint64_t b = seg.offsets[lo];
    const std::uint64_t e = seg.offsets[hi];
    if (e <= b) continue;
    auto addr = reinterpret_cast<std::uintptr_t>(seg.tokens.data() + b);
    std::size_t bytes =
        static_cast<std::size_t>(e - b) * sizeof(graph::VertexId);
    bytes += static_cast<std::size_t>(addr & (page - 1));
    addr &= ~(page - 1);
    // Advisory only; a failure just means no readahead.
    (void)::posix_madvise(reinterpret_cast<void*>(addr), bytes,
                          POSIX_MADV_WILLNEED);
  }
#else
  (void)begin;
  (void)end;
#endif
}

bool SpooledCorpus::zero_copy() const noexcept {
  return std::all_of(segments_.begin(), segments_.end(),
                     [](const Segment& seg) { return seg.snap.zero_copy(); });
}

}  // namespace v2v::walk
