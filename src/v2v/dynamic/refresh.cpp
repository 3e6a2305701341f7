#include "v2v/dynamic/refresh.hpp"

#include <algorithm>
#include <utility>

#include "v2v/common/check.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/common/timer.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/walk/walker.hpp"

namespace v2v::dynamic {

RefreshSession::RefreshSession(DynamicGraph graph,
                               const walk::WalkConfig& walk_config,
                               const embed::TrainConfig& train_config,
                               const RefreshTuning& tuning, std::uint64_t seed,
                               obs::MetricsRegistry* metrics)
    : graph_(std::move(graph)),
      walk_config_(walk_config),
      train_config_(train_config),
      tuning_(tuning),
      metrics_(metrics) {
  // The same master-seed split learn_embedding uses, so a bootstrap
  // session reproduces a `v2v_tool embed` run bit-for-bit.
  walk_seed_ = 0x9e3779b97f4a7c15ULL;
  if (seed != 0) {
    std::uint64_t sm = seed;
    walk_seed_ = splitmix64(sm);
    train_config_.seed = splitmix64(sm);
  }
  if (train_config_.metrics == nullptr) train_config_.metrics = metrics_;
  if (walk_config_.metrics == nullptr) walk_config_.metrics = metrics_;

  // The construction-time edge set is the baseline: compact it into the
  // CSR and forget the dirtiness the bulk load produced.
  graph_.compact();
  (void)graph_.drain_dirty();
  V2V_CHECK(graph_.vertex_count() > 0, "RefreshSession: empty graph");

  regenerate_corpus();
  rebuild_index();
  (void)train_cold();
}

RefreshSession::RefreshSession(DynamicGraph graph, embed::Embedding warm_start,
                               embed::TrainerCheckpoint checkpoint,
                               const walk::WalkConfig& walk_config,
                               const embed::TrainConfig& train_config,
                               const RefreshTuning& tuning,
                               obs::MetricsRegistry* metrics)
    : graph_(std::move(graph)),
      walk_config_(walk_config),
      train_config_(train_config),
      tuning_(tuning),
      walk_seed_(checkpoint.walk_seed),
      embedding_(std::move(warm_start)),
      checkpoint_(std::move(checkpoint)),
      metrics_(metrics) {
  V2V_CHECK(checkpoint_.walks_per_vertex == walk_config_.walks_per_vertex,
            "RefreshSession: walks_per_vertex differs from the checkpoint");
  V2V_CHECK(checkpoint_.walk_length == walk_config_.walk_length,
            "RefreshSession: walk_length differs from the checkpoint");
  if (train_config_.metrics == nullptr) train_config_.metrics = metrics_;
  if (walk_config_.metrics == nullptr) walk_config_.metrics = metrics_;

  graph_.compact();
  (void)graph_.drain_dirty();
  V2V_CHECK(graph_.vertex_count() > 0, "RefreshSession: empty graph");

  // Deterministically replay the corpus the snapshot was trained on; from
  // here on the session is indistinguishable from one that never exited.
  regenerate_corpus();
  rebuild_index();
}

void RefreshSession::regenerate_corpus() {
  if (!walk_config_.spool_dir.empty()) {
    // Out-of-core replay: walks stream to disk and are read back mmap'd,
    // so peak RSS stays O(spool buffer) instead of O(corpus). The spool
    // holds the exact generate_corpus token stream (same seed, same
    // sharding), preserving the session's replay invariant.
    (void)walk::generate_corpus_spooled(graph_.base(), walk_config_,
                                        walk_seed_);
    spool_.emplace(walk::SpooledCorpus::open(walk_config_.spool_dir));
    corpus_ = walk::Corpus();
    return;
  }
  spool_.reset();
  corpus_ = walk::generate_corpus(graph_.base(), walk_config_, walk_seed_);
}

const walk::CorpusReader& RefreshSession::session_corpus() const noexcept {
  if (spool_) return *spool_;
  return corpus_;
}

void RefreshSession::rebuild_index() {
  index_ = walk::WalkIndex(session_corpus(), graph_.base().vertex_count());
}

embed::TrainStats RefreshSession::train_cold() {
  embed::TrainConfig config = train_config_;
  config.capture_checkpoint = true;
  auto result =
      embed::train_embedding(session_corpus(), graph_.base().vertex_count(), config);
  embedding_ = std::move(result.embedding);
  checkpoint_ = std::move(*result.checkpoint);
  // A cold start begins a fresh lineage with the session's walk identity.
  checkpoint_.walks_per_vertex = walk_config_.walks_per_vertex;
  checkpoint_.walk_length = walk_config_.walk_length;
  checkpoint_.walk_seed = walk_seed_;
  return std::move(result.stats);
}

embed::TrainConfig RefreshSession::refresh_train_config() const {
  embed::TrainConfig config = train_config_;
  config.epochs = std::max<std::size_t>(1, tuning_.epochs);
  config.min_epochs = std::min(config.min_epochs, config.epochs);
  // Continue the decayed schedule by default: the refresh starts where
  // the previous run's linear decay left off.
  config.initial_lr = tuning_.initial_lr > 0.0 ? tuning_.initial_lr
                      : checkpoint_.last_lr > 0.0
                          ? checkpoint_.last_lr
                          : train_config_.initial_lr;
  // A fresh trainer stream per round, derived so round k of any session
  // over the same lineage trains identically.
  std::uint64_t sm = checkpoint_.seed ^ (checkpoint_.refresh_rounds + 1);
  config.seed = splitmix64(sm);
  config.capture_checkpoint = true;
  return config;
}

RefreshStats RefreshSession::refresh() {
  WallTimer total_timer;
  RefreshStats stats;

  const auto dirty = graph_.drain_dirty();
  stats.dirty_vertices = dirty.size();
  graph_.compact();

  WallTimer walk_timer;
  // Splice from whichever backing currently holds the session corpus;
  // the merged result is RAM-resident either way, so a spooled session
  // pays the disk read exactly once.
  auto incremental = regenerate_corpus_incremental(
      graph_.base(), walk_config_, walk_seed_, session_corpus(), index_,
      std::span<const graph::VertexId>(dirty));
  stats.walk_seconds = walk_timer.seconds();
  stats.regenerated_starts = incremental.regenerated_starts;
  stats.reused_starts = incremental.reused_starts;
  stats.invalidated_walks = incremental.invalidated_walks;
  corpus_ = std::move(incremental.corpus);
  spool_.reset();
  rebuild_index();

  WallTimer train_timer;
  auto result = embed::train_embedding_resume(corpus_, embedding_, checkpoint_,
                                              refresh_train_config());
  stats.train_seconds = train_timer.seconds();
  embedding_ = std::move(result.embedding);
  checkpoint_ = std::move(*result.checkpoint);
  stats.train = std::move(result.stats);
  stats.total_seconds = total_timer.seconds();
  record_stats(stats);
  return stats;
}

RefreshStats RefreshSession::full_retrain() {
  WallTimer total_timer;
  RefreshStats stats;
  stats.full_retrain = true;

  stats.dirty_vertices = graph_.drain_dirty().size();
  graph_.compact();

  WallTimer walk_timer;
  regenerate_corpus();
  stats.walk_seconds = walk_timer.seconds();
  stats.regenerated_starts = graph_.base().vertex_count();
  rebuild_index();

  WallTimer train_timer;
  stats.train = train_cold();
  stats.train_seconds = train_timer.seconds();
  stats.total_seconds = total_timer.seconds();
  record_stats(stats);
  return stats;
}

void RefreshSession::record_stats(const RefreshStats& stats) const {
  if (metrics_ == nullptr) return;
  metrics_->counter(stats.full_retrain ? "dynamic.full_retrains"
                                       : "dynamic.refreshes")
      .add(1);
  metrics_->gauge("dynamic.dirty_vertices")
      .set(static_cast<double>(stats.dirty_vertices));
  metrics_->gauge("dynamic.regenerated_starts")
      .set(static_cast<double>(stats.regenerated_starts));
  metrics_->gauge("dynamic.reused_starts")
      .set(static_cast<double>(stats.reused_starts));
  metrics_->gauge("dynamic.invalidated_walks")
      .set(static_cast<double>(stats.invalidated_walks));
  metrics_->gauge("dynamic.walk_seconds").set(stats.walk_seconds);
  metrics_->gauge("dynamic.train_seconds").set(stats.train_seconds);
  metrics_->gauge("dynamic.total_seconds").set(stats.total_seconds);
  metrics_->series("dynamic.refresh_seconds").append(stats.total_seconds);
}

}  // namespace v2v::dynamic
