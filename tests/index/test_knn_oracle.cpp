// Oracle tests: KnnClassifier against an independent naive reference
// implementation on random data, swept over seeds and metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <type_traits>
#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/common/vec_math.hpp"
#include "v2v/index/knn.hpp"

namespace v2v::index {
namespace {

// gtest prints a parameter it has no printer for as its raw bytes, and
// CTest names the test after that dump. Padding would print whatever the
// stack held, which changes from build to build, so the gap after
// `metric` is a named zero field instead.
struct OracleCase {
  OracleCase(std::uint64_t s, DistanceMetric m, std::size_t kk)
      : seed(s), metric(m), k(kk) {}

  std::uint64_t seed;
  DistanceMetric metric;
  std::array<std::uint8_t, 7> zero{};
  std::size_t k;
};
static_assert(std::has_unique_object_representations_v<OracleCase>);

class KnnOracleSweep : public ::testing::TestWithParam<OracleCase> {};

std::uint32_t naive_predict(const MatrixF& points,
                            const std::vector<std::uint32_t>& labels,
                            std::span<const float> query, std::size_t k,
                            DistanceMetric metric) {
  std::vector<std::pair<double, std::size_t>> scored;
  for (std::size_t i = 0; i < points.rows(); ++i) {
    const double d =
        metric == DistanceMetric::kCosine
            ? cosine_distance(query, std::span<const float>(points.row(i)))
            : squared_distance(query, std::span<const float>(points.row(i)));
    scored.emplace_back(d, i);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  k = std::min(k, scored.size());
  std::map<std::uint32_t, std::size_t> votes;
  std::uint32_t best = labels[scored[0].second];
  std::size_t best_votes = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const auto label = labels[scored[i].second];
    const auto v = ++votes[label];
    if (v > best_votes) {
      best_votes = v;
      best = label;
    }
  }
  return best;
}

TEST_P(KnnOracleSweep, MatchesNaiveReference) {
  const OracleCase& param = GetParam();
  const std::uint64_t seed = param.seed;
  const DistanceMetric metric = param.metric;
  const std::size_t k = param.k;
  Rng rng(seed);
  constexpr std::size_t kTrain = 60;
  constexpr std::size_t kDims = 5;
  MatrixF points(kTrain, kDims);
  std::vector<std::uint32_t> labels(kTrain);
  for (std::size_t i = 0; i < kTrain; ++i) {
    for (std::size_t d = 0; d < kDims; ++d) {
      points(i, d) = static_cast<float>(rng.next_gaussian());
    }
    labels[i] = static_cast<std::uint32_t>(rng.next_below(4));
  }
  const KnnClassifier knn(points, labels, metric);

  for (int q = 0; q < 50; ++q) {
    std::vector<float> query(kDims);
    for (auto& x : query) x = static_cast<float>(rng.next_gaussian());
    EXPECT_EQ(knn.predict(query, k), naive_predict(points, labels, query, k, metric))
        << "seed " << seed << " query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnOracleSweep,
    ::testing::Values(OracleCase{1, DistanceMetric::kCosine, 1},
                      OracleCase{2, DistanceMetric::kCosine, 3},
                      OracleCase{3, DistanceMetric::kCosine, 7},
                      OracleCase{4, DistanceMetric::kEuclidean, 1},
                      OracleCase{5, DistanceMetric::kEuclidean, 3},
                      OracleCase{6, DistanceMetric::kEuclidean, 7},
                      OracleCase{7, DistanceMetric::kEuclidean, 15}));

}  // namespace
}  // namespace v2v::index
