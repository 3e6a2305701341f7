// The dynamic-refresh driver: edge churn in, refreshed embedding out.
//
// A RefreshSession owns the DynamicGraph, its walk and train configs, the
// walk seed, the embedding and the trainer checkpoint. It keeps no corpus:
// the bootstrap, each refresh() round and each full_retrain() build the
// corpus of the compacted graph, train on it and drop it. A refresh()
// round:
//
//   drain dirty set -> compact the graph -> generate the corpus of
//   graph.base() at the walk seed (walk::with_corpus: spooled when
//   walk_config.spool_dir is set, in RAM otherwise) -> continue SGD from
//   the warm embedding + checkpoint (embed::train_embedding_resume) for a
//   few cheap epochs -> drop the corpus.
//
// So every round trains on walk::generate_corpus(graph.base(),
// walk_config, walk_seed) by construction: there is no stored corpus to
// fall out of step with the graph. full_retrain() is the A/B escape
// hatch: same walk seed, cold-start training, resets the warm-start
// lineage.
//
// Mutations applied BEFORE the session is constructed are part of the
// baseline (the constructor compacts and clears the dirty set); only
// apply()ed deltas count as churn.
#pragma once

#include <cstdint>
#include <span>

#include "v2v/dynamic/dynamic_graph.hpp"
#include "v2v/embed/trainer.hpp"
#include "v2v/walk/walker.hpp"

namespace v2v::obs {
class MetricsRegistry;
}  // namespace v2v::obs

namespace v2v::dynamic {

/// Knobs of the warm refresh path (config-file keys refresh.*).
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
  std::size_t dirty_vertices = 0;  ///< drained this round
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

  /// Resume: picks up a persisted embedding + checkpoint (snapshot v3)
  /// and runs no walk. `graph` must hold the edge set the snapshot was
  /// trained on, in the original insertion order; later rounds walk it at
  /// checkpoint.walk_seed. walk_config must agree with the checkpoint's
  /// walks_per_vertex/walk_length.
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

  /// Warm refresh: the corpus of the compacted graph + tuning.epochs of
  /// continued SGD. Still retrains when nothing is dirty.
  RefreshStats refresh();

  /// The same corpus + cold-start retrain (A/B escape hatch).
  RefreshStats full_retrain();

  [[nodiscard]] DynamicGraph& graph() noexcept { return graph_; }
  [[nodiscard]] const DynamicGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] const embed::Embedding& embedding() const noexcept {
    return embedding_;
  }
  [[nodiscard]] const embed::TrainerCheckpoint& checkpoint() const noexcept {
    return checkpoint_;
  }
  [[nodiscard]] std::uint64_t walk_seed() const noexcept { return walk_seed_; }

 private:
  /// Drains the dirty set, compacts the graph, trains (below) and
  /// records the round's stats: refresh() and full_retrain().
  RefreshStats run_round(bool cold);
  /// Builds the corpus of graph_.base() at walk_seed_ (walk::with_corpus),
  /// trains on it and drops it; fills the walk and train stats. `cold`
  /// (bootstrap and full_retrain) replaces the embedding and starts a
  /// fresh checkpoint lineage stamped with the session's walk identity;
  /// otherwise training resumes from the embedding and checkpoint.
  RefreshStats train(bool cold);
  [[nodiscard]] embed::TrainConfig refresh_train_config() const;
  void record_stats(const RefreshStats& stats) const;

  DynamicGraph graph_;
  walk::WalkConfig walk_config_;
  embed::TrainConfig train_config_;  ///< full-retrain config (bootstrap epochs)
  RefreshTuning tuning_;
  std::uint64_t walk_seed_ = 0;
  embed::Embedding embedding_;
  embed::TrainerCheckpoint checkpoint_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace v2v::dynamic
