#include "v2v/dynamic/refresh.hpp"

#include <algorithm>
#include <utility>

#include "v2v/common/check.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/common/timer.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/walk/corpus_spool.hpp"

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

  (void)train(/*cold=*/true);
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

  // Each round walks the graph anew, so from here on the session is
  // indistinguishable from one that never exited.
  graph_.compact();
  (void)graph_.drain_dirty();
  V2V_CHECK(graph_.vertex_count() > 0, "RefreshSession: empty graph");
}

RefreshStats RefreshSession::train(bool cold) {
  RefreshStats stats;
  embed::TrainResult result;
  const walk::CorpusRun run = walk::with_corpus(
      graph_.base(), walk_config_, walk_seed_, [&](const walk::CorpusReader& corpus) {
        const WallTimer train_timer;
        if (cold) {
          embed::TrainConfig config = train_config_;
          config.capture_checkpoint = true;
          result = embed::train_embedding(corpus, graph_.base().vertex_count(), config);
        } else {
          result = embed::train_embedding_resume(corpus, embedding_, checkpoint_,
                                                 refresh_train_config());
        }
        stats.train_seconds = train_timer.seconds();
      });
  stats.walk_seconds = run.walk_seconds;
  embedding_ = std::move(result.embedding);
  checkpoint_ = std::move(*result.checkpoint);
  if (cold) {
    // A cold start begins a fresh lineage with the session's walk identity.
    checkpoint_.walks_per_vertex = walk_config_.walks_per_vertex;
    checkpoint_.walk_length = walk_config_.walk_length;
    checkpoint_.walk_seed = walk_seed_;
  }
  stats.train = std::move(result.stats);
  return stats;
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

RefreshStats RefreshSession::refresh() { return run_round(/*cold=*/false); }

RefreshStats RefreshSession::full_retrain() { return run_round(/*cold=*/true); }

RefreshStats RefreshSession::run_round(bool cold) {
  const WallTimer total_timer;
  const std::size_t dirty = graph_.drain_dirty().size();
  graph_.compact();
  RefreshStats stats = train(cold);
  stats.dirty_vertices = dirty;
  stats.full_retrain = cold;
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
  metrics_->gauge("dynamic.walk_seconds").set(stats.walk_seconds);
  metrics_->gauge("dynamic.train_seconds").set(stats.train_seconds);
  metrics_->gauge("dynamic.total_seconds").set(stats.total_seconds);
  metrics_->series("dynamic.refresh_seconds").append(stats.total_seconds);
}

}  // namespace v2v::dynamic
