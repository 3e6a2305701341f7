// IVF-PQ: the inverted-file layout of IvfIndex with product-quantized
// residuals instead of float rows — m bytes per vector instead of
// 4 * dims, the memory-bound serving configuration.
//
// Build: coarse k-means exactly like IvfIndex (sampled training, exact
// engine assignment), then every row's residual against its coarse cell
// (row - coarse_row) is product-quantized: per-subspace codebooks trained
// on sampled residuals, codes assigned by the same exact engine, packed
// into posting lists grouped by cell. Both passes run under
// parallel_for_dynamic's fixed-grain contract, so codes are byte-identical
// across thread counts.
//
// Query: rank coarse cells by squared distance, and for each of the
// `nprobe` nearest build the ADC lookup table over the query residual
// (q - coarse_row): lut[s][c] = sqdist of subvector s against codeword c,
// one kernels::pq_lut call per subspace. Scanning a list is then
// kernels::pq_adc per code — m table gathers, no float row traffic. ||q - x||^2 = ||(q - c) - (x - c)||^2, so the ADC sum
// approximates the true squared distance; for cosine (unit rows) distance
// is adc / 2, which matches 1 - cos up to quantization error.
//
// The optional exact-rerank stage re-scores the top-R candidates against
// the float matrix (when attached) with FlatIndex's formulas — the
// memory-for-recall knob of quantized serving. Everything
// round-trips through snapshot v2 sections ("qmet"/"pqbk"/"pqcc"/"pqcd"/
// "pqid"/"pqls"), served straight from the mapping.
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

struct IvfPqConfig {
  /// Posting lists (coarse cells); 0 picks ~sqrt(rows).
  std::size_t nlist = 0;
  /// Lists scanned per query; clamped to nlist.
  std::size_t nprobe = 8;
  /// PQ subspaces (bytes per vector); clamped to [1, dims].
  std::size_t m = 8;
  /// Exact-rerank depth over the float matrix; 0 disables.
  std::size_t rerank = 0;
  /// Rows sampled for coarse + PQ training; 0 or >= rows uses everything.
  std::size_t train_sample = 20000;
  std::size_t kmeans_iterations = 15;
  std::size_t kmeans_restarts = 1;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  ml::KMeansAssign kmeans_assign = ml::KMeansAssign::kHamerly;
  /// Optional observability sink (ivfpq.* gauges + "ivfpq_build" span).
  obs::MetricsRegistry* metrics = nullptr;
};

class IvfPqIndex final : public VectorIndex {
  struct BuildTag {};  ///< passkey: only from_snapshot can mint one

 public:
  /// Passkey constructor backing from_snapshot's make_unique; not
  /// callable outside this class (BuildTag is private).
  explicit IvfPqIndex(BuildTag) noexcept {}

  /// Builds over `data`; codes/books are owned, the view is kept only for
  /// rerank. Throws std::invalid_argument when `data` is empty.
  IvfPqIndex(store::EmbeddingView data, DistanceMetric metric,
             IvfPqConfig config = {});

  /// Reconstructs from a quantized snapshot. Packed codes and ids are
  /// served straight from the mapping — `snap` must outlive the index.
  /// Attaches the float matrix for rerank when the snapshot carries one.
  [[nodiscard]] static std::unique_ptr<IvfPqIndex> from_snapshot(
      const store::MappedSnapshot& snap, IvfPqConfig config = {});

  /// Adds "qmet"/"pqbk"/"pqcc"/"pqcd"/"pqid"/"pqls" to a builder.
  void save_sections(store::SnapshotBuilder& builder) const;

  [[nodiscard]] std::size_t size() const noexcept override { return rows_; }
  [[nodiscard]] std::size_t dimensions() const noexcept override { return dims_; }
  [[nodiscard]] DistanceMetric metric() const noexcept override { return metric_; }

  void search_into(std::span<const float> query, std::size_t k,
                   std::vector<Neighbor>& out) const override;
  double warm_rows(std::size_t begin, std::size_t end) const override;

  [[nodiscard]] std::size_t nlist() const noexcept {
    return list_offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t list_size(std::size_t list) const noexcept {
    return list_offsets_[list + 1] - list_offsets_[list];
  }
  void set_nprobe(std::size_t nprobe) noexcept {
    nprobe_.store(nprobe, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t nprobe() const noexcept {
    return nprobe_.load(std::memory_order_relaxed);
  }
  void set_rerank_data(store::EmbeddingView floats) noexcept {
    floats_ = floats;
    has_floats_ = true;
  }
  void set_rerank(std::size_t r) noexcept {
    rerank_.store(r, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t rerank() const noexcept {
    return rerank_.load(std::memory_order_relaxed);
  }

  /// Quantized footprint per vector: m code bytes + id + amortized
  /// books/coarse/list-offset overhead.
  [[nodiscard]] double bytes_per_vector() const noexcept;
  [[nodiscard]] std::size_t subspaces() const noexcept { return pq_.m; }
  [[nodiscard]] std::span<const std::uint8_t> packed_codes() const noexcept {
    return codes_;
  }
  [[nodiscard]] std::span<const std::uint32_t> ids() const noexcept {
    return ids_;
  }
  [[nodiscard]] std::span<const std::size_t> list_offsets() const noexcept {
    return list_offsets_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t dims_ = 0;
  DistanceMetric metric_ = DistanceMetric::kCosine;
  std::atomic<std::size_t> nprobe_{8};
  std::atomic<std::size_t> rerank_{0};
  MatrixF coarse_;  ///< nlist x dims cell centers (float, snapshot truth)
  PqCodebooks pq_;
  std::vector<std::uint8_t> codes_owned_;  ///< empty when snapshot-backed
  std::span<const std::uint8_t> codes_;    ///< rows x m, grouped by list
  std::vector<std::uint32_t> ids_owned_;
  std::span<const std::uint32_t> ids_;     ///< packed slot -> original id
  std::vector<std::size_t> list_offsets_;  ///< nlist + 1 prefix offsets
  store::EmbeddingView floats_;            ///< rerank source (optional)
  bool has_floats_ = false;
};

}  // namespace v2v::index
