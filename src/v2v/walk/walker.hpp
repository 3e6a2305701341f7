// Constrained random walks (paper §II-A).
//
// Starting from every vertex, the walker runs `walks_per_vertex`
// independent walks of up to `walk_length` vertices. Steps can be biased
// and constrained:
//   - Uniform          : uniform over out-neighbors (the basic walk)
//   - EdgeWeight       : probability proportional to the arc weight
//   - VertexWeight     : probability proportional to the target's weight
// Direction is always respected: on a directed graph only out-arcs are
// followed and a walk terminates early at a dead end. If the graph carries
// timestamps and `temporal` is set, consecutive arcs must have
// non-decreasing timestamps; `time_window > 0` additionally bounds the gap
// between consecutive arc timestamps.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/common/timer.hpp"
#include "v2v/graph/graph.hpp"
#include "v2v/walk/alias_table.hpp"
#include "v2v/walk/corpus.hpp"

namespace v2v::obs {
class MetricsRegistry;
}  // namespace v2v::obs

namespace v2v::walk {

enum class StepBias : std::uint8_t { kUniform, kEdgeWeight, kVertexWeight };

struct WalkConfig {
  /// Walks started per vertex (count; paper t = 1000, default 10).
  std::size_t walks_per_vertex = 10;
  /// Maximum vertices per walk, including the start (count; paper
  /// ℓ = 1000, default 80 — dead ends cut walks short).
  std::size_t walk_length = 80;
  /// Per-step transition bias (paper §II-A; default: uniform over
  /// out-neighbors).
  StepBias bias = StepBias::kUniform;
  /// Enforce non-decreasing arc timestamps along a walk (paper §II-A
  /// temporal constraint; off by default).
  bool temporal = false;
  /// Max timestamp gap between consecutive arcs, same unit as the graph's
  /// timestamps; <= 0 disables the window (default).
  double time_window = 0.0;
  /// Worker threads for corpus generation (count; default 1 = serial).
  /// The corpus does not depend on it (see CorpusDriver).
  std::size_t threads = 1;
  /// Optional observability sink: generate_corpus and StreamedCorpus's
  /// counting pass record walk/step throughput counters, per-shard
  /// balance, and a "walk" stage span into it. Null (default) disables
  /// instrumentation.
  obs::MetricsRegistry* metrics = nullptr;
  /// When true, walk::with_corpus trains from a StreamedCorpus, which
  /// redraws the walks on demand instead of holding them in RAM (see
  /// corpus_stream.hpp); the walks and every 1-thread training bit are
  /// the RAM corpus's. False (the default) materializes the corpus.
  bool streaming = false;
};

/// Runs walks from all start vertices and returns the merged corpus (the
/// CorpusDriver layout below). Deterministic for a fixed (graph, config,
/// seed) triple, including under multithreading: each start vertex owns
/// an independent RNG stream.
[[nodiscard]] Corpus generate_corpus(const graph::Graph& g, const WalkConfig& config,
                                     std::uint64_t seed);

/// Stateful walker; reusable across walks, owns the per-vertex alias
/// tables for weight-biased stepping.
class Walker {
 public:
  Walker(const graph::Graph& g, const WalkConfig& config);
  /// The walker keeps a reference to the graph; binding a temporary would
  /// dangle, so it is rejected at compile time.
  Walker(graph::Graph&&, const WalkConfig&) = delete;

  /// Appends one walk from `start` into `out` (cleared first). The walk
  /// contains at least the start vertex.
  void walk_from(graph::VertexId start, Rng& rng,
                 std::vector<graph::VertexId>& out) const;

  [[nodiscard]] const WalkConfig& config() const noexcept { return config_; }

 private:
  /// Picks the next vertex from `current` given the previous arc
  /// timestamp; nullopt when no admissible arc exists.
  [[nodiscard]] std::optional<std::pair<graph::VertexId, double>> step(
      graph::VertexId current, double prev_timestamp, Rng& rng) const;

  const graph::Graph& graph_;
  WalkConfig config_;
  /// One alias table per vertex with >=1 out-arc, for static biased steps.
  std::vector<AliasTable> alias_;
  bool use_alias_ = false;
  bool constrained_ = false;  // temporal filtering required per step
};

/// One chunk of start vertices [begin, end), as a worker receives it.
struct WalkChunk {
  std::size_t worker;  ///< < CorpusDriver::workers()
  std::size_t index;   ///< chunk index: the RAM shard
  std::size_t begin;
  std::size_t end;
};

/// The one place the corpus layout lives. Every corpus producer runs on a
/// CorpusDriver — generate_corpus, generate_corpus_node2vec and
/// StreamedCorpus — which fixes what makes a corpus a pure function of
/// (graph, walk parameters, seed), whatever the thread count or
/// schedule:
///   - the RNG: start vertex v draws its walks_per_vertex walks, in order,
///     from the one stream root.fork(v);
///   - the order: walk i is start vertex i / walks_per_vertex's walk
///     number i % walks_per_vertex;
///   - the start-vertex split the producers run on: chunk c covers start
///     vertices [c*grain, min((c+1)*grain, n)) with grain
///     default_grain(n, threads), run on parallel_for_dynamic; the RAM
///     corpus keeps one shard per chunk, merged in chunk order.
/// A producer keeps only what it does with a walk.
class CorpusDriver {
 public:
  /// Draws one walk from a start vertex into `out`, e.g.
  /// std::bind_front(&Walker::walk_from, &walker).
  using WalkFn =
      std::function<void(graph::VertexId, Rng&, std::vector<graph::VertexId>&)>;
  /// Handles one chunk and returns the tokens it produced.
  using ChunkFn = std::function<std::size_t(const WalkChunk&)>;

  /// Lays out `vertices` start vertices by config's walks_per_vertex,
  /// walk_length and threads, with streams rooted at `seed`. The
  /// walk telemetry goes to config.metrics when set; its walk.seconds
  /// counts from here, so construct the driver before the walker.
  CorpusDriver(std::size_t vertices, const WalkConfig& config, std::uint64_t seed);

  [[nodiscard]] std::size_t chunks() const noexcept { return chunks_; }
  /// Walks in the corpus: vertices * walks_per_vertex.
  [[nodiscard]] std::size_t walk_count() const noexcept {
    return vertices_ * config_.walks_per_vertex;
  }
  /// Workers the chunks run on; every WalkChunk::worker is below this.
  [[nodiscard]] std::size_t workers() const noexcept;

  /// Runs `on_chunk` once per chunk on parallel_for_dynamic, then records
  /// the walk telemetry from the token counts it returned.
  void run(const ChunkFn& on_chunk) const;

  /// Draws walks [begin, end) (end <= walk_count()) in order and hands
  /// each to `sink`. A range that starts partway through a start vertex's
  /// walks re-forks that vertex's stream and draws and discards the walks
  /// before `begin`, so every walk is the one the whole-vertex pass draws.
  /// Const and safe to call concurrently.
  void walk_range(const WalkFn& walk_from, std::size_t begin, std::size_t end,
                  const WalkSink& sink) const;

  /// walk_range over the whole start vertices of `chunk`.
  void walk_chunk(const WalkFn& walk_from, const WalkChunk& chunk,
                  const WalkSink& sink) const {
    walk_range(walk_from, chunk.begin * config_.walks_per_vertex,
               chunk.end * config_.walks_per_vertex, sink);
  }

  /// The RAM corpus: every chunk's walks go to that chunk's shard, and the
  /// shards are merged in chunk order.
  [[nodiscard]] Corpus collect(const WalkFn& walk_from) const;

 private:
  std::size_t vertices_;
  WalkConfig config_;
  std::size_t threads_;
  std::size_t grain_;
  std::size_t chunks_;
  Rng root_;
  WallTimer timer_;
};

}  // namespace v2v::walk
