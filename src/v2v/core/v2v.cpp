#include "v2v/core/v2v.hpp"

#include <cmath>
#include <stdexcept>

#include "v2v/common/check.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/common/timer.hpp"
#include "v2v/ml/crossval.hpp"
#include "v2v/ml/pca.hpp"
#include "v2v/ml/silhouette.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/walk/corpus_spool.hpp"

namespace v2v {

V2VModel learn_embedding(const graph::Graph& g, const V2VConfig& config) {
  if (g.vertex_count() == 0) {
    throw std::invalid_argument("learn_embedding: empty graph");
  }
  V2V_CHECK(config.walk.walk_length >= 1, "learn_embedding: walk_length < 1");
  V2V_CHECK(config.train.dimensions >= 1, "learn_embedding: dimensions < 1");
  V2VModel model;
  walk::WalkConfig walk_config = config.walk;
  embed::TrainConfig train_config = config.train;
  if (walk_config.metrics == nullptr) walk_config.metrics = config.metrics;
  if (train_config.metrics == nullptr) train_config.metrics = config.metrics;
  const obs::ScopedTimer pipeline_span(config.metrics, "learn_embedding");
  std::uint64_t walk_seed = 0x9e3779b97f4a7c15ULL;
  if (config.seed != 0) {
    std::uint64_t sm = config.seed;
    walk_seed = splitmix64(sm);
    train_config.seed = splitmix64(sm);
  }

  // Pick the corpus once: streamed, or spooled or RAM-resident through
  // walk::with_corpus. The checkpoint's walk identity is stamped once,
  // after the choice.
  embed::TrainResult result;
  if (config.streaming) {
    // Walk generation happens inside the trainer; walk_seconds stays 0,
    // corpus_tokens stays 0 (never materialized) and corpus_walks reports
    // the per-epoch walk budget.
    train_config.seed ^= walk_seed;
    result = embed::train_embedding_streaming(g, walk_config, train_config);
    model.corpus_walks = g.vertex_count() * walk_config.walks_per_vertex;
  } else {
    const walk::CorpusRun run = walk::with_corpus(
        g, walk_config, walk_seed, [&](const walk::CorpusReader& corpus) {
          result = embed::train_embedding(corpus, g.vertex_count(), train_config);
        });
    model.walk_seconds = run.walk_seconds;
    model.corpus_walks = run.walks;
    model.corpus_tokens = run.tokens;
  }
  model.train_seconds = result.stats.train_seconds;
  model.train_stats = std::move(result.stats);
  model.embedding = std::move(result.embedding);
  if (result.checkpoint) {
    result.checkpoint->walks_per_vertex = walk_config.walks_per_vertex;
    result.checkpoint->walk_length = walk_config.walk_length;
    result.checkpoint->walk_seed = walk_seed;
    model.checkpoint = std::move(result.checkpoint);
  }
  return model;
}

CommunityDetectionResult detect_communities(const embed::Embedding& embedding,
                                            std::size_t k,
                                            ml::KMeansConfig kmeans_config,
                                            obs::MetricsRegistry* metrics) {
  V2V_CHECK(k >= 1, "detect_communities: k < 1");
  V2V_CHECK(k <= embedding.vertex_count(),
            "detect_communities: k exceeds vertex count");
  kmeans_config.k = k;
  if (kmeans_config.metrics == nullptr) kmeans_config.metrics = metrics;
  WallTimer timer;
  auto clusters = ml::kmeans(embedding.matrix(), kmeans_config);
  CommunityDetectionResult result;
  result.cluster_seconds = timer.seconds();
  result.labels = std::move(clusters.assignment);
  result.sse = clusters.sse;
  return result;
}

AutoCommunityResult detect_communities_auto(const embed::Embedding& embedding,
                                            std::size_t k_min, std::size_t k_max,
                                            ml::KMeansConfig kmeans_config,
                                            obs::MetricsRegistry* metrics) {
  V2V_CHECK(k_min >= 2, "detect_communities_auto: k_min < 2");
  V2V_CHECK(k_min <= k_max, "detect_communities_auto: k_min > k_max");
  k_max = std::min(k_max, embedding.vertex_count());
  const auto selection = ml::select_k_by_silhouette(
      embedding.matrix(), k_min, k_max, kmeans_config.restarts, kmeans_config.seed,
      kmeans_config.threads);
  AutoCommunityResult result;
  result.chosen_k = selection.best_k;
  result.silhouette_curve = selection.scores;
  result.detection =
      detect_communities(embedding, selection.best_k, kmeans_config, metrics);
  return result;
}

LabelPredictionResult evaluate_label_prediction(const embed::Embedding& embedding,
                                                const std::vector<std::uint32_t>& labels,
                                                std::size_t neighbors, std::size_t folds,
                                                std::size_t repeats,
                                                index::DistanceMetric metric,
                                                std::uint64_t seed) {
  if (labels.size() != embedding.vertex_count()) {
    throw std::invalid_argument(
        "evaluate_label_prediction: labels size != vertex count");
  }
  V2V_CHECK(neighbors >= 1, "evaluate_label_prediction: neighbors < 1");
  V2V_CHECK(folds >= 2, "evaluate_label_prediction: folds < 2");
  V2V_CHECK(repeats >= 1, "evaluate_label_prediction: repeats < 1");
  LabelPredictionResult result;
  Rng rng(seed);
  std::vector<double> repeat_accuracy;
  repeat_accuracy.reserve(repeats);

  for (std::size_t rep = 0; rep < repeats; ++rep) {
    const auto split = ml::make_kfold(labels.size(), folds, rng);
    std::size_t correct = 0, total = 0;
    for (const auto& fold : split) {
      const index::KnnClassifier classifier(embedding.matrix(), fold.train, labels,
                                            metric);
      for (const std::size_t test_row : fold.test) {
        const auto predicted =
            classifier.predict(embedding.vector(test_row), neighbors);
        correct += predicted == labels[test_row] ? 1 : 0;
        ++total;
      }
    }
    repeat_accuracy.push_back(static_cast<double>(correct) /
                              static_cast<double>(total));
    result.predictions += total;
  }

  double mean = 0.0;
  for (const double a : repeat_accuracy) mean += a;
  mean /= static_cast<double>(repeat_accuracy.size());
  double var = 0.0;
  for (const double a : repeat_accuracy) var += (a - mean) * (a - mean);
  var /= static_cast<double>(repeat_accuracy.size());
  result.accuracy = mean;
  result.stddev = std::sqrt(var);
  return result;
}

std::vector<viz::Point2> project_pca_2d(const embed::Embedding& embedding) {
  V2V_CHECK(embedding.vertex_count() > 0, "project_pca_2d: empty embedding");
  const ml::Pca pca(embedding.matrix());
  const MatrixD projected = pca.transform(embedding.matrix(), 2);
  std::vector<viz::Point2> points(projected.rows());
  for (std::size_t i = 0; i < projected.rows(); ++i) {
    points[i].x = projected(i, 0);
    points[i].y = projected.cols() > 1 ? projected(i, 1) : 0.0;
  }
  return points;
}

}  // namespace v2v
