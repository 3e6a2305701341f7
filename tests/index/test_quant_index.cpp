// IvfIndex's quantized codecs: recall floors against the FlatIndex oracle
// on planted clusters (SQ8, IVF-PQ, IVF-PQ + exact rerank), IVF-PQ's ADC
// estimates against the per-list residual table, byte-identical builds
// across thread counts, snapshot round-trips with bit-equal codes,
// sections and search results, snapshot validation, and the runtime
// nprobe/rerank knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "v2v/common/kernels.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/common/vec_math.hpp"
#include "v2v/index/flat_index.hpp"
#include "v2v/index/ivf_index.hpp"
#include "v2v/index/quantizer.hpp"
#include "v2v/store/snapshot.hpp"

namespace v2v::index {
namespace {

namespace fs = std::filesystem;

/// Every snapshot section save_sections writes for the PQ codec.
constexpr const char* kIvfPqSections[] = {"qmet", "pqbk", "pqcc",
                                          "pqcd", "pqid", "pqls"};

/// Gaussian blobs on distinct coordinate axes. `sigma` 0.3 matches the
/// IvfIndex fixture; the SQ8 cases use 1.0 so neighbor-distance gaps sit
/// above 8-bit quantization noise (with sigma 0.3 the normalized
/// same-cluster gaps are ~1e-4, below any scalar quantizer's resolution —
/// that regime is what the rerank stage exists for).
MatrixF planted_clusters(std::size_t n, std::size_t d, std::size_t clusters,
                         std::uint64_t seed, double sigma = 0.3) {
  MatrixF points(n, d);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % clusters;
    for (std::size_t j = 0; j < d; ++j) {
      const double center = (j == c % d) ? 10.0 : 0.0;
      points(i, j) = static_cast<float>(center + sigma * rng.next_gaussian());
    }
  }
  return points;
}

/// SQ8 as one list in id order: the layout of an SQ8 snapshot.
IvfConfig sq8_config(std::size_t threads = 1) {
  return {.nlist = 1, .codec = IvfCodec::kSq8, .threads = threads};
}

IvfConfig pq_config() { return {.codec = IvfCodec::kPq}; }

MatrixF sample_queries(const MatrixF& points, std::size_t count,
                       std::uint64_t seed) {
  MatrixF queries(count, points.cols());
  Rng rng(seed);
  for (std::size_t q = 0; q < count; ++q) {
    const std::size_t src = rng.next_below(points.rows());
    for (std::size_t j = 0; j < points.cols(); ++j) {
      queries(q, j) =
          points(src, j) + static_cast<float>(0.1 * rng.next_gaussian());
    }
  }
  return queries;
}

double recall_against(const FlatIndex& oracle, const VectorIndex& approx,
                      const MatrixF& queries, std::size_t k) {
  double hit = 0.0, total = 0.0;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto truth = oracle.search(queries.row(q), k);
    const auto got = approx.search(queries.row(q), k);
    for (const auto& t : truth) {
      total += 1.0;
      hit += std::any_of(got.begin(), got.end(),
                         [&](const Neighbor& g) { return g.id == t.id; })
                 ? 1.0
                 : 0.0;
    }
  }
  return total > 0.0 ? hit / total : 1.0;
}

class QuantIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("v2v_quant_index_test_" + std::to_string(::getpid()) + "_" +
            info->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  fs::path dir_;
};

TEST(QuantIndex, Sq8RecallFloorOnPlantedClusters) {
  const MatrixF points = planted_clusters(2000, 16, 8, 1, 1.0);
  const MatrixF queries = sample_queries(points, 40, 2);
  for (const auto metric :
       {DistanceMetric::kCosine, DistanceMetric::kEuclidean}) {
    const FlatIndex oracle(store::EmbeddingView::of(points), metric);
    const IvfIndex sq(store::EmbeddingView::of(points), metric, sq8_config(2));
    EXPECT_GE(recall_against(oracle, sq, queries, 10), 0.9)
        << "metric=" << static_cast<int>(metric);
  }
}

TEST(QuantIndex, IvfPqRecallFloorOnPlantedClusters) {
  const MatrixF points = planted_clusters(2000, 16, 8, 3);
  const MatrixF queries = sample_queries(points, 40, 4);
  for (const auto metric :
       {DistanceMetric::kCosine, DistanceMetric::kEuclidean}) {
    const FlatIndex oracle(store::EmbeddingView::of(points), metric);
    IvfConfig config = pq_config();
    config.nlist = 16;
    config.nprobe = 16;  // full probe: only PQ error left
    config.m = 8;
    config.threads = 2;
    config.seed = 7;
    const IvfIndex ivfpq(store::EmbeddingView::of(points), metric, config);
    EXPECT_GE(recall_against(oracle, ivfpq, queries, 10), 0.9)
        << "metric=" << static_cast<int>(metric);
  }
}

TEST(QuantIndex, IvfPqRerankLiftsRecall) {
  const MatrixF points = planted_clusters(2000, 16, 8, 5);
  const MatrixF queries = sample_queries(points, 40, 6);
  const FlatIndex oracle(store::EmbeddingView::of(points),
                         DistanceMetric::kCosine);
  IvfConfig config = pq_config();
  config.nlist = 16;
  config.nprobe = 8;
  config.m = 4;  // coarse enough that plain ADC ordering is imperfect
  config.threads = 2;
  config.seed = 9;
  IvfIndex ivfpq(store::EmbeddingView::of(points), DistanceMetric::kCosine,
                 config);
  const double plain = recall_against(oracle, ivfpq, queries, 10);
  ivfpq.set_rerank(100);
  const double reranked = recall_against(oracle, ivfpq, queries, 10);
  EXPECT_GE(reranked, 0.9);
  EXPECT_GE(reranked + 1e-12, plain)
      << "rerank must never lose recall at equal candidate depth";
}

TEST(QuantIndex, RerankedDistancesMatchOracleBitForBit) {
  const MatrixF points = planted_clusters(600, 12, 6, 11);
  const MatrixF queries = sample_queries(points, 10, 12);
  for (const auto metric :
       {DistanceMetric::kCosine, DistanceMetric::kEuclidean}) {
    const FlatIndex oracle(store::EmbeddingView::of(points), metric);
    IvfIndex sq(store::EmbeddingView::of(points), metric, sq8_config());
    sq.set_rerank(points.rows());  // rerank the full candidate set
    IvfConfig config = pq_config();
    config.nlist = 8;
    config.m = 4;
    config.seed = 25;
    IvfIndex ivfpq(store::EmbeddingView::of(points), metric, config);
    ivfpq.set_nprobe(ivfpq.nlist());  // every list: every row is a candidate
    ivfpq.set_rerank(points.rows());
    for (const VectorIndex* index : {static_cast<const VectorIndex*>(&sq),
                                     static_cast<const VectorIndex*>(&ivfpq)}) {
      for (std::size_t q = 0; q < queries.rows(); ++q) {
        const auto truth = oracle.search(queries.row(q), 5);
        const auto got = index->search(queries.row(q), 5);
        ASSERT_EQ(truth.size(), got.size());
        for (std::size_t i = 0; i < truth.size(); ++i) {
          EXPECT_EQ(truth[i].id, got[i].id) << "q=" << q << " i=" << i;
          EXPECT_EQ(truth[i].distance, got[i].distance) << "q=" << q;
        }
      }
    }
  }
}

TEST(QuantIndex, IvfPqRerankRescoresTheTopRAdcCandidates) {
  // Rerank depth R keeps the R best ADC candidates and re-scores them
  // exactly: the answer must equal exact_rerank over the rerank-0 top-R
  // list, ids and distance bits included. k > R widens the kept set to k.
  const MatrixF points = planted_clusters(1200, 16, 8, 27);
  const MatrixF queries = sample_queries(points, 12, 28);
  const auto view = store::EmbeddingView::of(points);
  for (const auto metric :
       {DistanceMetric::kCosine, DistanceMetric::kEuclidean}) {
    IvfConfig config = pq_config();
    config.nlist = 12;
    config.nprobe = 4;
    config.m = 4;
    config.seed = 29;
    IvfIndex ivfpq(view, metric, config);
    for (const std::size_t depth : {std::size_t{1}, std::size_t{7},
                                    std::size_t{40}, std::size_t{5000}}) {
      for (std::size_t q = 0; q < queries.rows(); ++q) {
        const std::size_t k = 10;
        ivfpq.set_rerank(0);
        auto expected = ivfpq.search(queries.row(q), std::max(k, depth));
        exact_rerank(view, metric, queries.row(q), expected, k);
        ivfpq.set_rerank(depth);
        const auto got = ivfpq.search(queries.row(q), k);
        ASSERT_EQ(got.size(), expected.size()) << "depth=" << depth;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].id, expected[i].id)
              << "depth=" << depth << " q=" << q << " i=" << i;
          EXPECT_EQ(std::memcmp(&got[i].distance, &expected[i].distance,
                                sizeof(double)),
                    0)
              << "depth=" << depth << " q=" << q << " i=" << i;
        }
      }
    }
  }
}

TEST(QuantIndex, IvfPqAdcMatchesResidualTable) {
  // Without rerank a PQ distance is the ADC estimate ||q - c - r||², which
  // the index sums from the coarse distance, one table over q and a
  // derived per-slot term. Every returned distance must match the direct
  // estimate — one table over the residual q - c per list — built from the
  // snapshot's "pqbk" and "pqcc" sections, up to float rounding of the
  // magnitudes the split cancels (||q||² and ||c||²).
  const MatrixF points = planted_clusters(1500, 20, 8, 33);
  const MatrixF queries = sample_queries(points, 6, 34);
  const std::size_t rows = points.rows();
  const std::size_t dims = points.cols();
  const fs::path file =
      fs::temp_directory_path() /
      ("v2v_quant_index_test_" + std::to_string(::getpid()) + "_adc.v2vsnap");
  for (const auto metric :
       {DistanceMetric::kCosine, DistanceMetric::kEuclidean}) {
    IvfConfig config = pq_config();
    config.nlist = 12;
    config.nprobe = 12;  // every list, so every row is returned
    config.m = 5;        // unequal subspace split on 20 dims
    config.seed = 35;
    const IvfIndex ivfpq(store::EmbeddingView::of(points), metric, config);
    store::SnapshotBuilder builder(rows, dims);
    ivfpq.save_sections(builder);
    builder.write(file.string());
    const auto snap = store::MappedSnapshot::open(file.string());
    const QuantMeta meta = decode_quant_meta(snap.section("qmet"));
    const PqCodebooks pq =
        PqCodebooks::from_pqbk(dims, meta.m, meta.ksub, snap.section("pqbk"));
    const auto centroids = snap.section("pqcc");
    const auto codes = ivfpq.packed_codes();

    std::vector<std::size_t> slot_of(rows), list_of(rows);
    for (std::size_t list = 0; list < ivfpq.nlist(); ++list) {
      for (std::size_t slot = ivfpq.list_offsets()[list];
           slot < ivfpq.list_offsets()[list + 1]; ++slot) {
        slot_of[ivfpq.ids()[slot]] = slot;
        list_of[slot] = list;
      }
    }

    const bool cosine = metric == DistanceMetric::kCosine;
    std::vector<float> q(dims), c(dims), residual(dims);
    std::vector<float> lut(pq.m * kernels::kPqLutStride);
    for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
      const auto query = queries.row(qi);
      std::copy(query.begin(), query.end(), q.begin());
      if (cosine) normalize(std::span<float>(q));
      const auto got = ivfpq.search(query, rows);
      ASSERT_EQ(got.size(), rows);
      for (const Neighbor& n : got) {
        const std::size_t slot = slot_of[n.id];
        std::memcpy(c.data(),
                    centroids.data() + list_of[slot] * dims * sizeof(float),
                    dims * sizeof(float));
        for (std::size_t j = 0; j < dims; ++j) residual[j] = q[j] - c[j];
        pq.build_lut(residual.data(), lut.data());
        const double adc =
            kernels::pq_adc(lut.data(), codes.data() + slot * pq.m, pq.m);
        const double scale = kernels::ddot(q.data(), q.data(), dims) +
                             kernels::ddot(c.data(), c.data(), dims);
        EXPECT_NEAR(n.distance, cosine ? 0.5 * adc : adc, 1e-5 * scale)
            << "metric=" << static_cast<int>(metric) << " q=" << qi
            << " id=" << n.id;
      }
    }
  }
  fs::remove(file);
}

TEST(QuantIndex, BuildIsByteIdenticalAcrossThreadCounts) {
  const MatrixF points = planted_clusters(1500, 20, 8, 13);
  for (const IvfCodec codec : {IvfCodec::kFloat, IvfCodec::kSq8, IvfCodec::kPq}) {
    IvfConfig base;
    base.nlist = 12;
    base.codec = codec;
    base.m = 5;  // unequal subspace split on 20 dims
    base.seed = 21;

    IvfConfig c1 = base;
    c1.threads = 1;
    const IvfIndex one(store::EmbeddingView::of(points),
                       DistanceMetric::kCosine, c1);
    for (const std::size_t threads : {2UL, 3UL, 8UL}) {
      IvfConfig cn = base;
      cn.threads = threads;
      const IvfIndex many(store::EmbeddingView::of(points),
                          DistanceMetric::kCosine, cn);
      const auto a = one.packed_codes();
      const auto b = many.packed_codes();
      const int c = static_cast<int>(codec);
      ASSERT_EQ(a.size(), b.size()) << threads;
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0)
          << "codes diverge at threads=" << threads << " codec " << c;
      ASSERT_EQ(one.ids().size(), many.ids().size());
      EXPECT_EQ(std::memcmp(one.ids().data(), many.ids().data(),
                            one.ids().size() * sizeof(std::uint32_t)),
                0)
          << "ids diverge at threads=" << threads << " codec " << c;
      EXPECT_TRUE(std::equal(one.list_offsets().begin(),
                             one.list_offsets().end(),
                             many.list_offsets().begin()))
          << "list offsets diverge at threads=" << threads << " codec " << c;
    }
  }
}

TEST_F(QuantIndexTest, Sq8SnapshotRoundTripIsBitExact) {
  const MatrixF points = planted_clusters(800, 24, 6, 15);
  const MatrixF queries = sample_queries(points, 20, 16);
  const IvfIndex built(store::EmbeddingView::of(points),
                       DistanceMetric::kCosine, sq8_config(2));

  store::SnapshotBuilder builder(points.rows(), points.cols());
  built.save_sections(builder);
  const auto p = path("sq8.v2vsnap");
  builder.write(p);

  const auto snap = store::MappedSnapshot::open(p);
  EXPECT_FALSE(snap.has_floats());
  const auto loaded = IvfIndex::from_snapshot(snap, sq8_config());
  EXPECT_EQ(loaded->metric(), DistanceMetric::kCosine);

  const auto a = built.packed_codes();
  const auto b = loaded->packed_codes();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);

  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto x = built.search(queries.row(q), 10);
    const auto y = loaded->search(queries.row(q), 10);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].id, y[i].id) << "q=" << q;
      EXPECT_EQ(x[i].distance, y[i].distance) << "q=" << q;
    }
  }
}

TEST_F(QuantIndexTest, IvfPqSnapshotRoundTripIsBitExact) {
  const MatrixF points = planted_clusters(1000, 16, 8, 17);
  const MatrixF queries = sample_queries(points, 20, 18);
  IvfConfig config = pq_config();
  config.nlist = 10;
  config.nprobe = 4;
  config.m = 8;
  config.threads = 2;
  config.seed = 23;
  const IvfIndex built(store::EmbeddingView::of(points),
                       DistanceMetric::kEuclidean, config);

  // With floats: rerank survives the round trip.
  store::SnapshotBuilder builder(points.rows(), points.cols());
  builder.set_float_matrix(store::EmbeddingView::of(points));
  built.save_sections(builder);
  const auto p = path("ivfpq.v2vsnap");
  builder.write(p);

  const auto snap = store::MappedSnapshot::open(p);
  EXPECT_TRUE(snap.has_floats());
  IvfConfig lc = pq_config();
  lc.nprobe = 4;
  const auto loaded = IvfIndex::from_snapshot(snap, lc);
  EXPECT_EQ(loaded->metric(), DistanceMetric::kEuclidean);
  EXPECT_EQ(loaded->nlist(), built.nlist());

  const auto a = built.packed_codes();
  const auto b = loaded->packed_codes();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);

  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto x = built.search(queries.row(q), 10);
    const auto y = loaded->search(queries.row(q), 10);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].id, y[i].id) << "q=" << q;
      EXPECT_EQ(x[i].distance, y[i].distance) << "q=" << q;
    }
  }

  // Re-saving the loaded index writes the same sections, byte for byte:
  // the codeword-major "pqbk" survives the in-memory dimension-major
  // layout in both directions.
  store::SnapshotBuilder again(points.rows(), points.cols());
  loaded->save_sections(again);
  const auto p2 = path("ivfpq_resaved.v2vsnap");
  again.write(p2);
  const auto resaved = store::MappedSnapshot::open(p2);
  for (const char* name : kIvfPqSections) {
    const auto x = snap.section(name);
    const auto y = resaved.section(name);
    ASSERT_EQ(x.size(), y.size()) << name;
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size()), 0) << name;
  }

  // The snapshot's float matrix feeds rerank on the loaded side too.
  loaded->set_rerank(50);
  const FlatIndex oracle(store::EmbeddingView::of(points),
                         DistanceMetric::kEuclidean);
  loaded->set_nprobe(10);
  EXPECT_GE(recall_against(oracle, *loaded, queries, 10), 0.9);
}

TEST_F(QuantIndexTest, IvfPqSnapshotWithOutOfRangeIdIsRejected) {
  // Checksums only prove the bytes are the ones written. A posting id >=
  // rows would go back to clients and index the float matrix in rerank,
  // so loading must refuse it.
  const MatrixF points = planted_clusters(300, 8, 4, 31);
  IvfConfig config = pq_config();
  config.nlist = 4;
  config.m = 4;
  const IvfIndex built(store::EmbeddingView::of(points),
                       DistanceMetric::kEuclidean, config);
  store::SnapshotBuilder good(points.rows(), points.cols());
  built.save_sections(good);
  const auto good_path = path("good.v2vsnap");
  good.write(good_path);
  const auto snap = store::MappedSnapshot::open(good_path);
  ASSERT_NO_THROW((void)IvfIndex::from_snapshot(snap, pq_config()));

  store::SnapshotBuilder bad(points.rows(), points.cols());
  for (const char* name : kIvfPqSections) {
    const auto bytes = snap.section(name);
    std::vector<std::uint8_t> payload(bytes.begin(), bytes.end());
    if (std::string(name) == "pqid") {
      const auto id = static_cast<std::uint32_t>(points.rows());
      std::memcpy(payload.data() + 17 * sizeof(std::uint32_t), &id, sizeof(id));
    }
    bad.add_section(name, std::move(payload));
  }
  const auto bad_path = path("bad.v2vsnap");
  bad.write(bad_path);
  const auto tampered = store::MappedSnapshot::open(bad_path);
  try {
    (void)IvfIndex::from_snapshot(tampered, pq_config());
    ADD_FAILURE() << "an id equal to rows was accepted";
  } catch (const store::SnapshotError& error) {
    EXPECT_EQ(error.code(), store::SnapshotErrorCode::kBadHeader);
  }
}

TEST_F(QuantIndexTest, SnapshotWhoseSectionSizesWrapIsRejected) {
  // Quant-only files whose header shape makes an expected section size
  // wrap to the (empty) size the section has: rows x m and rows x 4 for
  // IVF-PQ, 2 x dims x 4 and rows x dims for SQ8. Accepting them would
  // serve 2^62 rows out of empty sections.
  const auto expect_bad_header = [](const std::string& file, IvfCodec codec) {
    const auto snap = store::MappedSnapshot::open(file);
    try {
      (void)IvfIndex::from_snapshot(snap, {.codec = codec});
      ADD_FAILURE() << file << " was accepted";
    } catch (const store::SnapshotError& error) {
      EXPECT_EQ(error.code(), store::SnapshotErrorCode::kBadHeader) << file;
    }
  };

  store::SnapshotBuilder pq(1ULL << 62, 4);
  QuantMeta meta;
  meta.kind = kQuantKindIvfPq;
  meta.m = 4;
  meta.ksub = 256;
  meta.nlist = 1;
  pq.add_section("qmet", encode_quant_meta(meta));
  pq.add_section("pqbk", std::vector<std::uint8_t>(256 * 4 * sizeof(float)));
  pq.add_section("pqcc", std::vector<std::uint8_t>(4 * sizeof(float)));
  pq.add_section("pqcd", {});
  pq.add_section("pqid", {});
  std::vector<std::uint8_t> lists(2 * sizeof(std::uint64_t));
  const std::uint64_t rows = 1ULL << 62;
  std::memcpy(lists.data() + sizeof(rows), &rows, sizeof(rows));
  pq.add_section("pqls", std::move(lists));
  pq.write(path("pq_wrap.v2vsnap"));
  expect_bad_header(path("pq_wrap.v2vsnap"), IvfCodec::kPq);

  store::SnapshotBuilder sq8(8, 1ULL << 61);
  QuantMeta sq8_meta;
  sq8_meta.kind = kQuantKindSq8;
  sq8.add_section("qmet", encode_quant_meta(sq8_meta));
  sq8.add_section("sq8p", {});
  sq8.add_section("sq8c", {});
  sq8.write(path("sq8_wrap.v2vsnap"));
  expect_bad_header(path("sq8_wrap.v2vsnap"), IvfCodec::kSq8);
}

TEST(QuantIndex, BytesPerVectorBeatFloatBudget) {
  const MatrixF points = planted_clusters(1000, 64, 8, 19);
  const double float_bytes =
      static_cast<double>(MatrixF::padded_stride(64) * sizeof(float));
  const IvfIndex sq(store::EmbeddingView::of(points), DistanceMetric::kCosine,
                    sq8_config(2));
  IvfConfig config = pq_config();
  config.m = 8;
  config.threads = 2;
  const IvfIndex ivfpq(store::EmbeddingView::of(points),
                       DistanceMetric::kCosine, config);
  EXPECT_LE(sq.bytes_per_vector(), 0.35 * float_bytes);
  // IVF-PQ: per vector m code bytes, a 4-byte id and the 4-byte derived
  // slot term, plus the codebooks (256 x dims floats), the centroids and
  // the list offsets amortized over the rows. At 1000 rows the amortized
  // codebooks alone are 65.5 of its 90 bytes.
  const double fixed = static_cast<double>(
      (256 + ivfpq.nlist()) * 64 * sizeof(float) +
      (ivfpq.nlist() + 1) * sizeof(std::uint64_t));
  EXPECT_DOUBLE_EQ(ivfpq.bytes_per_vector(),
                   static_cast<double>(config.m + sizeof(std::uint32_t) +
                                       sizeof(float)) +
                       fixed / static_cast<double>(points.rows()));
}

TEST(QuantIndex, QuantMetaRoundTripsAndRejectsGarbage) {
  QuantMeta meta;
  meta.kind = kQuantKindIvfPq;
  meta.metric = DistanceMetric::kEuclidean;
  meta.m = 16;
  meta.ksub = 256;
  meta.nlist = 224;
  const auto bytes = encode_quant_meta(meta);
  const QuantMeta back = decode_quant_meta(bytes);
  EXPECT_EQ(back.kind, meta.kind);
  EXPECT_EQ(back.metric, meta.metric);
  EXPECT_EQ(back.m, meta.m);
  EXPECT_EQ(back.ksub, meta.ksub);
  EXPECT_EQ(back.nlist, meta.nlist);

  EXPECT_THROW((void)decode_quant_meta(std::span<const std::uint8_t>(
                   bytes.data(), bytes.size() - 1)),
               store::SnapshotError);
  auto bad = bytes;
  bad[0] = 0xff;  // unknown kind
  EXPECT_THROW((void)decode_quant_meta(bad), store::SnapshotError);
}

TEST(QuantIndex, Sq8EncodeClampsAndInvertsAffinely) {
  MatrixF rows(3, 2);
  rows(0, 0) = -1.0f;  rows(0, 1) = 5.0f;   // per-dim min
  rows(1, 0) = 3.0f;   rows(1, 1) = 5.0f;   // dim 1 is constant
  rows(2, 0) = 1.0f;   rows(2, 1) = 5.0f;
  const auto quant = Sq8Quantizer::train(rows);
  ASSERT_EQ(quant.dims, 2u);
  EXPECT_FLOAT_EQ(quant.vmin[0], -1.0f);
  EXPECT_FLOAT_EQ(quant.scale[0], 4.0f / 255.0f);
  EXPECT_FLOAT_EQ(quant.scale[1], 0.0f);  // degenerate dim encodes as 0

  std::uint8_t code[2] = {0, 0};
  quant.encode_row(rows.row(0), code);
  EXPECT_EQ(code[0], 0);    // min of the range
  EXPECT_EQ(code[1], 0);    // constant dim
  quant.encode_row(rows.row(1), code);
  EXPECT_EQ(code[0], 255);  // max of the range saturates the byte

  // Values outside the trained range (a query-like row) stay clamped.
  MatrixF wild(1, 2);
  wild(0, 0) = 100.0f;
  wild(0, 1) = -100.0f;
  quant.encode_row(wild.row(0), code);
  EXPECT_EQ(code[0], 255);
  EXPECT_EQ(code[1], 0);
}

TEST(QuantIndex, EmptyEmbeddingThrows) {
  EXPECT_THROW(
      IvfIndex(store::EmbeddingView(), DistanceMetric::kCosine, sq8_config()),
      std::invalid_argument);
  EXPECT_THROW(
      IvfIndex(store::EmbeddingView(), DistanceMetric::kCosine, pq_config()),
      std::invalid_argument);
}

}  // namespace
}  // namespace v2v::index
