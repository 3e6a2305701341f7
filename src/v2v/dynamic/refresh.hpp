// The dynamic-refresh driver: edge churn in, refreshed embedding out.
//
// A RefreshSession owns the DynamicGraph, the current corpus + walk
// provenance index, the embedding, and the trainer checkpoint. Each
// refresh() round:
//
//   drain dirty set -> compact the graph -> regenerate only the walk
//   blocks that touched a dirty vertex (incremental_walks.hpp) ->
//   continue SGD from the warm embedding + checkpoint
//   (embed::train_embedding_resume) for a few cheap epochs.
//
// Invariant maintained across rounds: the session corpus always equals
// walk::generate_corpus(graph.base(), walk_config, walk_seed) exactly —
// incremental regeneration is an optimization, never an approximation.
// full_retrain() is the A/B escape hatch: same walk seed, cold-start
// training, resets the warm-start lineage.
//
// Mutations applied BEFORE the session is constructed are part of the
// baseline (the constructor compacts and clears the dirty set); only
// apply()ed deltas count as churn.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "v2v/dynamic/dynamic_graph.hpp"
#include "v2v/dynamic/incremental_walks.hpp"
#include "v2v/embed/trainer.hpp"
#include "v2v/walk/corpus_spool.hpp"
#include "v2v/walk/walk_index.hpp"

namespace v2v::obs {
class MetricsRegistry;
}  // namespace v2v::obs

namespace v2v::dynamic {

/// Knobs of the incremental-refresh path (config-file keys refresh.*).
struct RefreshTuning {
  /// Continued-SGD passes per refresh (count; a fraction of a full
  /// retrain's epochs is the whole point).
  std::size_t epochs = 2;
  /// Starting step size of a refresh run; 0 (default) continues from the
  /// checkpoint's decayed last_lr.
  double initial_lr = 0.0;
  /// DynamicGraph compaction thresholds (see DynamicGraphConfig).
  std::size_t compact_min_delta = 1024;
  double compact_ratio = 0.25;

  [[nodiscard]] DynamicGraphConfig graph_config() const noexcept {
    return DynamicGraphConfig{compact_min_delta, compact_ratio};
  }
};

struct RefreshStats {
  std::size_t dirty_vertices = 0;      ///< drained this round
  std::size_t regenerated_starts = 0;  ///< walk blocks re-walked
  std::size_t reused_starts = 0;       ///< walk blocks spliced through
  std::size_t invalidated_walks = 0;   ///< old walks discarded
  double walk_seconds = 0.0;
  double train_seconds = 0.0;
  double total_seconds = 0.0;
  bool full_retrain = false;
  embed::TrainStats train;
};

class RefreshSession {
 public:
  /// Bootstrap: generates the corpus and trains from scratch on the
  /// graph's current state (checkpoint captured for later refreshes).
  /// `seed` is the master seed, split into walk/train seeds exactly like
  /// learn_embedding, so a bootstrap matches a v2v_tool embed run.
  RefreshSession(DynamicGraph graph, const walk::WalkConfig& walk_config,
                 const embed::TrainConfig& train_config,
                 const RefreshTuning& tuning, std::uint64_t seed,
                 obs::MetricsRegistry* metrics = nullptr);

  /// Resume: picks up a persisted embedding + checkpoint (snapshot v3).
  /// `graph` must hold the edge set the snapshot was trained on, in the
  /// original insertion order; the old corpus is regenerated
  /// deterministically from checkpoint.walk_seed. walk_config must agree
  /// with the checkpoint's walks_per_vertex/walk_length.
  RefreshSession(DynamicGraph graph, embed::Embedding warm_start,
                 embed::TrainerCheckpoint checkpoint,
                 const walk::WalkConfig& walk_config,
                 const embed::TrainConfig& train_config,
                 const RefreshTuning& tuning,
                 obs::MetricsRegistry* metrics = nullptr);

  void apply(const EdgeDelta& delta) { graph_.apply(delta); }
  std::size_t apply(std::span<const EdgeDelta> deltas) {
    return graph_.apply(deltas);
  }

  /// Incremental refresh: dirty walks + continued SGD. No-op-ish when
  /// nothing is dirty (still retrains tuning.epochs over the corpus).
  RefreshStats refresh();

  /// Full regeneration + cold-start retrain (A/B escape hatch).
  RefreshStats full_retrain();

  [[nodiscard]] DynamicGraph& graph() noexcept { return graph_; }
  [[nodiscard]] const DynamicGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] const embed::Embedding& embedding() const noexcept {
    return embedding_;
  }
  [[nodiscard]] const embed::TrainerCheckpoint& checkpoint() const noexcept {
    return checkpoint_;
  }
  /// The RAM-resident session corpus. Empty while the corpus lives in the
  /// disk spool (walk_config.spool_dir set and no refresh() round has
  /// materialized it yet) — check spooled() first.
  [[nodiscard]] const walk::Corpus& corpus() const noexcept { return corpus_; }
  /// True while the session corpus is backed by the disk spool instead of
  /// corpus_. Bootstrap/resume with walk_config.spool_dir set starts
  /// spooled; the first refresh() materializes the merged corpus in RAM.
  [[nodiscard]] bool spooled() const noexcept { return spool_.has_value(); }
  [[nodiscard]] const walk::WalkConfig& walk_config() const noexcept {
    return walk_config_;
  }
  [[nodiscard]] std::uint64_t walk_seed() const noexcept { return walk_seed_; }

 private:
  /// (Re)creates the session corpus from graph_.base() at walk_seed_:
  /// spooled to walk_config_.spool_dir when set, RAM-resident otherwise.
  void regenerate_corpus();
  /// The live session corpus: the spool while spooled(), else corpus_.
  [[nodiscard]] const walk::CorpusReader& session_corpus() const noexcept;
  void rebuild_index();
  /// Cold-start training on the session corpus (bootstrap and
  /// full_retrain): replaces the embedding and checkpoint, and stamps the
  /// session's walk identity into the checkpoint.
  embed::TrainStats train_cold();
  [[nodiscard]] embed::TrainConfig refresh_train_config() const;
  void record_stats(const RefreshStats& stats) const;

  DynamicGraph graph_;
  walk::WalkConfig walk_config_;
  embed::TrainConfig train_config_;  ///< full-retrain config (bootstrap epochs)
  RefreshTuning tuning_;
  std::uint64_t walk_seed_ = 0;
  walk::Corpus corpus_;
  /// Disk-backed session corpus (exactly one of corpus_ / spool_ is the
  /// live one; spool_ engaged iff spooled()).
  std::optional<walk::SpooledCorpus> spool_;
  walk::WalkIndex index_;
  embed::Embedding embedding_;
  embed::TrainerCheckpoint checkpoint_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace v2v::dynamic
