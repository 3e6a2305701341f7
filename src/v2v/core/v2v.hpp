// Public entry point of the library: the V2V pipeline of the paper.
//
//   graph  --(constrained random walks)-->  corpus
//   corpus --(CBOW / SkipGram SGD)------->  Embedding
//   Embedding --> { community detection, label prediction, visualization }
//
// Example:
//   v2v::V2VConfig config;
//   config.walk.walks_per_vertex = 10;
//   config.train.dimensions = 50;
//   auto model = v2v::learn_embedding(graph, config);
//   auto communities = v2v::detect_communities(model.embedding, 10);
//
// Refreshing an embedding as the graph changes: dynamic::RefreshSession
// (dynamic/refresh.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "v2v/embed/embedding.hpp"
#include "v2v/embed/trainer.hpp"
#include "v2v/graph/graph.hpp"
#include "v2v/index/knn.hpp"
#include "v2v/ml/kmeans.hpp"
#include "v2v/ml/metrics.hpp"
#include "v2v/viz/forceatlas2.hpp"
#include "v2v/walk/walker.hpp"

namespace v2v::obs {
class MetricsRegistry;
}  // namespace v2v::obs

namespace v2v {

struct V2VConfig {
  /// Random-walk stage parameters (paper §II-A defaults: t = 1000 walks of
  /// ℓ = 1000 vertices; the struct defaults are laptop-scale). Set
  /// walk.streaming for budgets whose corpus would not fit in memory: the
  /// walks are then redrawn on demand (walk::StreamedCorpus), with the
  /// same embedding bits at 1 thread.
  walk::WalkConfig walk;
  /// CBOW/SkipGram SGD parameters (paper §II-B defaults: CBOW, window
  /// n = 5, negative sampling).
  embed::TrainConfig train;
  /// k-means engine parameters for the community-detection stage; `k` is
  /// overwritten by the detect_communities argument. Config-file keys:
  /// kmeans.threads, kmeans.restarts, kmeans.assign.
  ml::KMeansConfig kmeans;
  /// Master seed; when nonzero it derives the walk and train seeds so one
  /// knob controls full reproducibility.
  std::uint64_t seed = 42;
  /// Optional observability sink. When set, learn_embedding propagates it
  /// into the walk and train stages (unless those configs already carry
  /// their own registry) and wraps the run in a "learn_embedding" stage
  /// span; export with obs/export.hpp. Null (default) disables
  /// instrumentation.
  obs::MetricsRegistry* metrics = nullptr;
};

struct V2VModel {
  embed::Embedding embedding;            ///< one dims-vector per vertex
  embed::TrainStats train_stats;         ///< per-epoch losses, example counts
  /// Corpus generation wall time (s): the RAM corpus's walks, or the
  /// streamed corpus's counting pass (its per-epoch redraws count as
  /// training time).
  double walk_seconds = 0.0;
  double train_seconds = 0.0;            ///< SGD wall time (s)
  std::size_t corpus_walks = 0;          ///< walks in the corpus (count)
  std::size_t corpus_tokens = 0;         ///< corpus vertices incl. starts (count)
  /// Warm-start state for dynamic refresh / snapshot v3; populated only
  /// when config.train.capture_checkpoint was set.
  std::optional<embed::TrainerCheckpoint> checkpoint;

  /// Total learning time, the paper's "training time" column.
  [[nodiscard]] double learn_seconds() const noexcept {
    return walk_seconds + train_seconds;
  }
};

/// Runs walks + training; the returned embedding covers every vertex.
[[nodiscard]] V2VModel learn_embedding(const graph::Graph& g, const V2VConfig& config);

// ---------------------------------------------------------------------------
// Applications (paper §III–§V)
// ---------------------------------------------------------------------------

struct CommunityDetectionResult {
  std::vector<std::uint32_t> labels;  ///< cluster id per vertex, in [0, k)
  double cluster_seconds = 0.0;  ///< k-means wall time (s): Table I's "Running time"
  double sse = 0.0;              ///< within-cluster sum of squared distances
};

/// Paper §III: k-means over the embedding space. `kmeans_config.k` is
/// overwritten by `k`. When `metrics` is non-null it is propagated into
/// the k-means stage (unless kmeans_config already carries a registry).
[[nodiscard]] CommunityDetectionResult detect_communities(
    const embed::Embedding& embedding, std::size_t k,
    ml::KMeansConfig kmeans_config = {}, obs::MetricsRegistry* metrics = nullptr);

/// Like detect_communities but chooses k automatically by the silhouette
/// curve over [k_min, k_max] (paper §VII asks for principled parameter
/// selection). The chosen k is reported in the result.
struct AutoCommunityResult {
  CommunityDetectionResult detection;  ///< clustering at the chosen k
  std::size_t chosen_k = 0;            ///< k with the best mean silhouette
  std::vector<std::pair<std::size_t, double>> silhouette_curve;  ///< (k, score) pairs
};
[[nodiscard]] AutoCommunityResult detect_communities_auto(
    const embed::Embedding& embedding, std::size_t k_min = 2, std::size_t k_max = 20,
    ml::KMeansConfig kmeans_config = {}, obs::MetricsRegistry* metrics = nullptr);

struct LabelPredictionResult {
  double accuracy = 0.0;       ///< mean accuracy in [0, 1] over folds and repeats
  double stddev = 0.0;         ///< accuracy standard deviation across repeats
  std::size_t predictions = 0; ///< total test predictions made (count)
};

/// Paper §V: k-NN label prediction evaluated with `folds`-fold cross
/// validation repeated `repeats` times (paper: 10-fold, 10 repeats).
/// Prediction runs on the index layer's QueryEngine in exact FlatIndex
/// mode, so the numbers match the pre-index brute-force implementation
/// bit for bit.
[[nodiscard]] LabelPredictionResult evaluate_label_prediction(
    const embed::Embedding& embedding, const std::vector<std::uint32_t>& labels,
    std::size_t neighbors, std::size_t folds = 10, std::size_t repeats = 10,
    index::DistanceMetric metric = index::DistanceMetric::kCosine,
    std::uint64_t seed = 1);

/// Paper §IV: PCA projection of the embedding to `components` dimensions,
/// returned as 2-D points when components == 2 (use ml::Pca directly for
/// higher-dimensional projections).
[[nodiscard]] std::vector<viz::Point2> project_pca_2d(const embed::Embedding& embedding);

}  // namespace v2v
