// Inverted-file (IVF) approximate nearest-neighbor index: a coarse
// quantizer, a codec for the rows in its posting lists, and an optional
// exact rerank — the IVFADC split of Jégou et al., "Product Quantization
// for Nearest Neighbor Search" (TPAMI 2011). FlatIndex stays apart as the
// exact oracle.
//
// Build: rows are metric-normalized once. The coarse quantizer — k-means
// over a deterministic sample of the rows, reusing ml/kmeans — partitions
// them into `nlist` posting lists; every row goes to its nearest centroid
// and its code is repacked into one contiguous buffer grouped by list
// (stable by id), so a probe streams memory instead of chasing ids. The
// codec decides what a code is:
//
//   kFloat  the normalized row itself (a padded float row), scored with
//           kernels::ddot / sqdist.
//   kSq8    one byte per dimension (Sq8Quantizer fitted on every row),
//           scored by the asymmetric kernels::sq8_dot / sq8_sqdist — the
//           query stays float, no decoded copy materializes.
//   kPq     the row's residual against its centroid, product-quantized to
//           m bytes (PqCodebooks trained on the sampled residuals). A
//           probed list builds one ADC table over the query residual
//           (kernels::pq_lut per subspace) and scores each code with
//           kernels::pq_adc: ||q - x||² = ||(q - c) - (x - c)||².
//
// Query: rank the centroids by squared distance to the normalized query,
// scan the `nprobe` nearest lists — the codec is picked once per list,
// never per code — and keep the top-k by (distance, id). nprobe == nlist
// scans every code. With rerank depth R > 0 and float rows attached, the
// top max(k, R) candidates are re-scored with FlatIndex's formulas
// (exact_rerank), the memory-for-recall knob of quantized serving.
//
// Cosine: rows and queries are L2-normalized (zero vectors stay zero, at
// distance 1 from everything, as in vec_math), so ||a - b||² = 2·(1 - cos)
// and cosine distance is 1 - dot (float, SQ8) or adc / 2 (PQ). Distances
// before rerank are approximate — exactness lives in FlatIndex.
//
// Snapshots: kSq8 and kPq round-trip through v2 sections ("qmet" plus
// "sq8p"/"sq8c", or plus "pqbk"/"pqcc"/"pqcd"/"pqid"/"pqls"), served from
// the mapping. An SQ8 snapshot is one list in id order with no id array.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "v2v/common/matrix.hpp"
#include "v2v/index/quantizer.hpp"
#include "v2v/index/vector_index.hpp"
#include "v2v/ml/kmeans.hpp"
#include "v2v/store/embedding_view.hpp"

namespace v2v::obs {
class MetricsRegistry;
}  // namespace v2v::obs

namespace v2v::store {
class SnapshotBuilder;
class MappedSnapshot;
}  // namespace v2v::store

namespace v2v::index {

/// What a posting-list entry stores (see the header comment).
enum class IvfCodec : std::uint8_t { kFloat, kSq8, kPq };

struct IvfConfig {
  /// Posting lists (coarse centroids); 0 picks ~sqrt(rows). One list scans
  /// every code, in id order.
  std::size_t nlist = 0;
  /// Lists scanned per query; clamped to nlist. The recall/QPS knob.
  std::size_t nprobe = 8;
  IvfCodec codec = IvfCodec::kFloat;
  /// kPq subspaces (code bytes per vector); clamped to [1, dims].
  std::size_t m = 8;
  /// Exact-rerank depth over the float rows; 0 disables.
  std::size_t rerank = 0;
  /// Seeds the training sample, the coarse k-means and the PQ codebooks.
  std::uint64_t seed = 1;
  /// Worker threads for the build; codes are byte-identical at any count.
  std::size_t threads = 1;
  /// Assignment engine for quantizer training and the row-assignment
  /// pass. kNaive is the slow oracle kept for CI speedup gates.
  ml::KMeansAssign kmeans_assign = ml::KMeansAssign::kHamerly;
  /// Optional observability sink: records ivf.nlist / ivf.build_seconds /
  /// ivf.build_threads gauges, an ivf.rows counter, an ivf.list_size
  /// histogram, and an "ivf_build" stage span.
  obs::MetricsRegistry* metrics = nullptr;
};

class IvfIndex final : public VectorIndex {
  struct LoadTag {};  ///< passkey: only from_snapshot can mint one

 public:
  /// Passkey constructor backing from_snapshot's make_unique; not
  /// callable outside this class (LoadTag is private).
  explicit IvfIndex(LoadTag) noexcept {}

  /// Builds the index over `data`. Codes are owned; the view is kept for
  /// rerank, so its backing storage must outlive the index. Throws
  /// std::invalid_argument when `data` is empty.
  IvfIndex(store::EmbeddingView data, DistanceMetric metric, IvfConfig config = {});

  /// Loads `config.codec`'s sections (kSq8 or kPq) from a quantized
  /// snapshot; nprobe and rerank come from `config`, the metric from
  /// "qmet". Codes and ids are served straight from the mapping — `snap`
  /// must outlive the index. Attaches the float matrix for rerank when the
  /// snapshot carries one. Throws store::SnapshotError(kBadHeader) when
  /// "qmet" names another codec or a section does not match the shape.
  [[nodiscard]] static std::unique_ptr<IvfIndex> from_snapshot(
      const store::MappedSnapshot& snap, IvfConfig config = {});

  /// Adds "qmet" and the codec's sections to a v2 snapshot builder.
  /// Throws std::logic_error for kFloat (floats go in the row matrix) and
  /// for a kSq8 index with more than one list.
  void save_sections(store::SnapshotBuilder& builder) const;

  [[nodiscard]] std::size_t size() const noexcept override { return rows_; }
  [[nodiscard]] std::size_t dimensions() const noexcept override { return dims_; }
  [[nodiscard]] DistanceMetric metric() const noexcept override { return metric_; }

  void search_into(std::span<const float> query, std::size_t k,
                   std::vector<Neighbor>& out) const override;

  double warm_rows(std::size_t begin, std::size_t end) const override;

  [[nodiscard]] std::size_t nlist() const noexcept { return list_offsets_.size() - 1; }
  [[nodiscard]] std::size_t list_size(std::size_t list) const noexcept {
    return list_offsets_[list + 1] - list_offsets_[list];
  }
  /// Runtime-tunable; safe to change between (not during) queries from the
  /// controlling thread — concurrent readers just see old or new value.
  void set_nprobe(std::size_t nprobe) noexcept {
    nprobe_.store(nprobe, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t nprobe() const noexcept {
    return nprobe_.load(std::memory_order_relaxed);
  }
  /// Runtime-tunable like set_nprobe; 0 disables rerank.
  void set_rerank(std::size_t r) noexcept {
    rerank_.store(r, std::memory_order_relaxed);
  }

  /// Footprint per vector: code bytes + id (when the index keeps an id
  /// array) + the centroids, list offsets and codec parameters, amortized.
  [[nodiscard]] double bytes_per_vector() const noexcept;
  [[nodiscard]] std::span<const std::uint8_t> packed_codes() const noexcept {
    return codes_;
  }
  /// Packed slot -> original id; empty when slots are in id order (one
  /// list).
  [[nodiscard]] std::span<const std::uint32_t> ids() const noexcept { return ids_; }
  [[nodiscard]] std::span<const std::size_t> list_offsets() const noexcept {
    return list_offsets_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t dims_ = 0;
  DistanceMetric metric_ = DistanceMetric::kCosine;
  IvfCodec codec_ = IvfCodec::kFloat;
  std::atomic<std::size_t> nprobe_{8};
  std::atomic<std::size_t> rerank_{0};
  MatrixF centroids_;                        ///< nlist x dims quantizer
  std::vector<std::size_t> list_offsets_;    ///< nlist + 1 prefix offsets
  std::size_t code_bytes_ = 0;               ///< bytes per packed code
  MatrixF float_codes_;                      ///< kFloat codes: rows by list
  std::vector<std::uint8_t> codes_owned_;    ///< kSq8/kPq codes unless mapped
  std::span<const std::uint8_t> codes_;      ///< all codes, grouped by list
  std::vector<std::uint32_t> ids_owned_;
  std::span<const std::uint32_t> ids_;       ///< slot -> id; empty = identity
  Sq8Quantizer sq8_;                         ///< kSq8 parameters
  PqCodebooks pq_;                           ///< kPq codebooks
  store::EmbeddingView floats_;              ///< rerank rows; empty = none
};

}  // namespace v2v::index
