#include "v2v/walk/walker.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "v2v/common/thread_pool.hpp"
#include "v2v/common/timer.hpp"
#include "v2v/obs/metrics.hpp"

namespace v2v::walk {
namespace {

/// Publishes corpus-generation telemetry: totals, throughput, scheduling
/// parameters, and how evenly the token workload landed on the workers
/// (`worker_tokens` = tokens produced by each dynamic-queue worker).
void record_corpus_metrics(obs::MetricsRegistry& metrics, std::size_t walks,
                           std::size_t tokens,
                           const std::vector<std::size_t>& worker_tokens,
                           double seconds, std::size_t max_tokens_possible,
                           std::size_t grain, std::size_t chunks) {
  std::size_t max_shard = 0;
  auto& shard_hist = metrics.histogram(
      "walk.shard_tokens",
      {0.0, std::max<double>(1.0, static_cast<double>(max_tokens_possible)), 64});
  for (const std::size_t shard_tokens : worker_tokens) {
    max_shard = std::max(max_shard, shard_tokens);
    shard_hist.record(static_cast<double>(shard_tokens));
  }
  // Steps = transitions taken; each walk contributes (length - 1).
  const std::size_t steps = tokens - walks;
  metrics.counter("walk.walks").add(walks);
  metrics.counter("walk.tokens").add(tokens);
  metrics.counter("walk.steps").add(steps);
  metrics.gauge("walk.seconds").set(seconds);
  metrics.gauge("walk.grain").set(static_cast<double>(grain));
  metrics.gauge("walk.chunks").set(static_cast<double>(chunks));
  if (seconds > 0.0) {
    metrics.gauge("walk.walks_per_sec").set(static_cast<double>(walks) / seconds);
    metrics.gauge("walk.steps_per_sec").set(static_cast<double>(steps) / seconds);
  }
  if (tokens > 0 && !worker_tokens.empty()) {
    const double mean_shard =
        static_cast<double>(tokens) / static_cast<double>(worker_tokens.size());
    metrics.gauge("walk.shard_imbalance")
        .set(static_cast<double>(max_shard) / mean_shard);
  }
}

}  // namespace

Walker::Walker(const graph::Graph& g, const WalkConfig& config)
    : graph_(g), config_(config) {
  if (config_.walk_length == 0) {
    throw std::invalid_argument("Walker: walk_length must be >= 1");
  }
  if (config_.temporal && !g.has_timestamps()) {
    throw std::invalid_argument("Walker: temporal walks need edge timestamps");
  }
  constrained_ = config_.temporal;

  // Static biased steps use per-vertex alias tables; temporal walks cannot
  // (the admissible arc set changes per step), they fall back to a linear
  // weighted scan in step(). Construction is embarrassingly parallel over
  // vertices — each table only reads the graph and writes its own slot —
  // and each table is a pure function of its vertex's arc weights, so the
  // result is byte-identical for any thread count.
  if (!constrained_ && config_.bias != StepBias::kUniform) {
    use_alias_ = true;
    alias_.resize(g.vertex_count());
    const WallTimer alias_timer;
    const std::size_t threads = std::max<std::size_t>(1, config_.threads);
    parallel_for_dynamic(
        threads, g.vertex_count(), config_.grain,
        [&](std::size_t, std::size_t, std::size_t begin, std::size_t end) {
          std::vector<double> weights;  // per-worker scratch
          for (std::size_t v = begin; v < end; ++v) {
            const auto nbrs = g.neighbors(static_cast<graph::VertexId>(v));
            if (nbrs.empty()) continue;
            weights.clear();
            weights.reserve(nbrs.size());
            for (std::size_t i = 0; i < nbrs.size(); ++i) {
              weights.push_back(
                  config_.bias == StepBias::kEdgeWeight
                      ? g.arc_weight_at(static_cast<graph::VertexId>(v), i)
                      : g.vertex_weight(nbrs[i]));
            }
            double total = 0.0;
            for (const double w : weights) total += w;
            if (total > 0.0) alias_[v] = AliasTable(weights);
            // All-zero weights leave an empty table: treated as a dead end.
          }
        });
    if (config_.metrics != nullptr) {
      config_.metrics->gauge("walk.alias_build_seconds").set(alias_timer.seconds());
    }
  }
}

std::optional<std::pair<graph::VertexId, double>> Walker::step(
    graph::VertexId current, double prev_timestamp, Rng& rng) const {
  const auto nbrs = graph_.neighbors(current);
  if (nbrs.empty()) return std::nullopt;

  if (!constrained_) {
    if (config_.bias == StepBias::kUniform) {
      const std::size_t pick = rng.next_below(nbrs.size());
      return std::make_pair(nbrs[pick], graph::kNoTimestamp);
    }
    const AliasTable& table = alias_[current];
    if (table.empty()) return std::nullopt;  // all candidate weights zero
    const std::size_t pick = table.sample(rng);
    return std::make_pair(nbrs[pick], graph::kNoTimestamp);
  }

  // Temporal step: gather admissible arcs and their bias weights, then
  // sample by cumulative weight. O(out_degree) per step.
  const auto timestamps = graph_.arc_timestamps(current);
  double total = 0.0;
  thread_local std::vector<std::pair<std::size_t, double>> candidates;
  candidates.clear();
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const double ts = timestamps[i];
    if (prev_timestamp != graph::kNoTimestamp) {
      if (ts < prev_timestamp) continue;
      if (config_.time_window > 0.0 && ts - prev_timestamp > config_.time_window) continue;
    }
    double w = 1.0;
    if (config_.bias == StepBias::kEdgeWeight) {
      w = graph_.arc_weight_at(current, i);
    } else if (config_.bias == StepBias::kVertexWeight) {
      w = graph_.vertex_weight(nbrs[i]);
    }
    if (w <= 0.0) continue;
    total += w;
    candidates.emplace_back(i, total);
  }
  if (candidates.empty()) return std::nullopt;
  const double target = rng.next_double() * total;
  // Binary search over the cumulative weights.
  std::size_t lo = 0, hi = candidates.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (candidates[mid].second <= target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const std::size_t arc = candidates[lo].first;
  return std::make_pair(nbrs[arc], timestamps[arc]);
}

void Walker::walk_from(graph::VertexId start, Rng& rng,
                       std::vector<graph::VertexId>& out) const {
  out.clear();
  out.push_back(start);
  graph::VertexId current = start;
  double prev_ts = graph::kNoTimestamp;
  while (out.size() < config_.walk_length) {
    const auto next = step(current, prev_ts, rng);
    if (!next) break;  // dead end (directed sink / temporal cul-de-sac)
    current = next->first;
    prev_ts = next->second;
    out.push_back(current);
  }
}

CorpusDriver::CorpusDriver(std::size_t vertices, const WalkConfig& config,
                           std::uint64_t seed)
    : vertices_(vertices),
      config_(config),
      threads_(std::max<std::size_t>(1, config.threads)),
      grain_(config.grain != 0 ? config.grain : default_grain(vertices, threads_)),
      chunks_(chunk_count(vertices, grain_)),
      root_(seed) {}

std::size_t CorpusDriver::workers() const noexcept {
  return std::min(threads_, std::max<std::size_t>(1, chunks_));
}

void CorpusDriver::run(const ChunkFn& on_chunk) const {
  std::vector<std::size_t> worker_tokens(workers(), 0);
  parallel_for_dynamic(
      threads_, vertices_, grain_,
      [&](std::size_t worker, std::size_t chunk, std::size_t begin, std::size_t end) {
        worker_tokens[worker] += on_chunk({worker, chunk, begin, end});
      });
  if (config_.metrics == nullptr) return;
  std::size_t tokens = 0;
  for (const std::size_t t : worker_tokens) tokens += t;
  const std::size_t walks = vertices_ * config_.walks_per_vertex;
  record_corpus_metrics(*config_.metrics, walks, tokens, worker_tokens, timer_.seconds(),
                        walks * config_.walk_length, grain_, chunks_);
}

void CorpusDriver::walk_chunk(const WalkFn& walk_from, const WalkChunk& chunk,
                              const WalkSink& sink, std::uint64_t stream_base) const {
  std::vector<graph::VertexId> buffer;
  buffer.reserve(config_.walk_length);
  for (std::size_t v = chunk.begin; v < chunk.end; ++v) {
    const auto start = static_cast<graph::VertexId>(v);
    // Per-vertex stream: deterministic regardless of scheduling.
    Rng rng = root_.fork(stream_base + v);
    for (std::size_t w = 0; w < config_.walks_per_vertex; ++w) {
      walk_from(start, rng, buffer);
      sink(buffer);
    }
  }
}

Corpus CorpusDriver::collect(const WalkFn& walk_from) const {
  std::vector<Corpus> shards(chunks_);
  run([&](const WalkChunk& chunk) {
    Corpus& shard = shards[chunk.index];
    const std::size_t walks = (chunk.end - chunk.begin) * config_.walks_per_vertex;
    shard.reserve(walks, walks * config_.walk_length);
    walk_chunk(walk_from, chunk,
               [&](std::span<const graph::VertexId> walk) { shard.add_walk(walk); });
    return shard.token_count();
  });
  if (chunks_ == 1) return std::move(shards[0]);
  // Move-merge in chunk order: shard 0's storage is stolen wholesale and
  // each later shard is freed right after it is drained, so peak memory is
  // roughly one corpus, not two.
  Corpus merged;
  for (auto& shard : shards) merged.append(std::move(shard));
  return merged;
}

Corpus generate_corpus(const graph::Graph& g, const WalkConfig& config,
                       std::uint64_t seed) {
  const obs::ScopedTimer span(config.metrics, "walk");
  const CorpusDriver driver(g.vertex_count(), config, seed);
  const Walker walker(g, config);
  return driver.collect(std::bind_front(&Walker::walk_from, &walker));
}

}  // namespace v2v::walk
