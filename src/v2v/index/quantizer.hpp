// Vector quantizers for the memory-bound serving path (ROADMAP: a
// million-user float32 corpus does not fit in RAM).
//
//   Sq8Quantizer  per-dimension min/max affine scalar quantization to one
//                 byte per dimension: code = round((x - vmin) / scale),
//                 decode = vmin + scale * code. 4x smaller than float32.
//   PqCodebooks   product quantization: the dims are split into m
//                 subspaces (the first dims % m subspaces get one extra
//                 dimension) and each subvector is replaced by the id of
//                 its nearest codeword among ksub <= 256 trained per
//                 subspace — m bytes per vector. Queries scan codes with
//                 the LUT-based asymmetric distance (ADC): one m x 256
//                 table of subspace sqdists per query, one kernels::pq_lut
//                 call per subspace, accumulated by kernels::pq_adc over
//                 the packed codes. IvfIndex builds that one table over
//                 the query itself and adds a per-list and a per-code
//                 term (ivf_index.hpp).
//
// Both quantizers train on the existing exact k-means engine (ml::kmeans
// + ml::assign_to_centroids) rather than reimplementing Lloyd; encoding
// inherits the engine's determinism contract, so codes are byte-identical
// across thread counts. Codebooks are stored as float32 — training's
// double centroids are rounded once — so an index rebuilt from snapshot
// sections encodes and scores exactly like the one that wrote them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "v2v/common/aligned.hpp"
#include "v2v/common/matrix.hpp"
#include "v2v/index/vector_index.hpp"
#include "v2v/ml/kmeans.hpp"
#include "v2v/store/embedding_view.hpp"

namespace v2v::index {

/// Per-dimension affine scalar quantizer (SQ8).
struct Sq8Quantizer {
  std::size_t dims = 0;
  AlignedVector<float> vmin;   ///< per-dimension minimum
  AlignedVector<float> scale;  ///< (max - min) / 255; 0 for constant dims

  /// Fits min/max per dimension over every row.
  [[nodiscard]] static Sq8Quantizer train(const MatrixF& rows);

  /// Encodes one row to dims bytes (values clamped into [vmin, vmin +
  /// 255 * scale]; constant dimensions encode as 0).
  void encode_row(std::span<const float> row, std::uint8_t* out) const noexcept;
};

/// Lloyd iterations for every quantizer trained here — the IVF coarse
/// quantizer and each PQ subspace, one restart each: a quantizer does not
/// need the paper's 100 x 100 clustering budget.
inline constexpr std::size_t kQuantizerIterations = 15;

/// Trained per-subspace codebooks. Each subspace stores a full 256-entry
/// book (codewords past ksub are zero), so the books buffer is always
/// exactly 256 * dims floats and the ADC LUT stride is
/// kernels::kPqLutStride. In memory a book is dimension-major — sub_dim
/// rows of 256 floats, row j holding dimension j of every codeword — so
/// kernels::pq_lut reads contiguous rows. The "pqbk" snapshot section is
/// codeword-major (256 codewords of sub_dim floats per subspace);
/// from_pqbk/to_pqbk are the only conversions between the two.
struct PqCodebooks {
  std::size_t dims = 0;
  std::size_t m = 0;
  std::size_t ksub = 0;                  ///< trained codewords per subspace
  std::vector<std::size_t> sub_offset;   ///< m + 1 dimension boundaries
  AlignedVector<float> books;            ///< per subspace, dimension-major

  /// Books from a codeword-major "pqbk" payload. Throws
  /// store::SnapshotError(kBadHeader) unless it holds 256 * dims floats.
  [[nodiscard]] static PqCodebooks from_pqbk(std::size_t dims, std::size_t m,
                                             std::size_t ksub,
                                             std::span<const std::uint8_t> bytes);
  /// The codeword-major "pqbk" payload; from_pqbk(to_pqbk()) round-trips.
  [[nodiscard]] std::vector<std::uint8_t> to_pqbk() const;

  [[nodiscard]] std::size_t sub_dim(std::size_t s) const noexcept {
    return sub_offset[s + 1] - sub_offset[s];
  }
  /// Subspace `s`'s book: sub_dim(s) rows of kernels::kPqLutStride
  /// floats; entry j * kPqLutStride + c is dimension j of codeword c.
  [[nodiscard]] const float* book(std::size_t s) const noexcept {
    return books.data() + 256 * sub_offset[s];
  }
  [[nodiscard]] float* book(std::size_t s) noexcept {
    return books.data() + 256 * sub_offset[s];
  }

  /// Fills the per-query ADC table: lut[s * kPqLutStride + c] is the
  /// squared distance between `q`'s subvector s and codeword c. `lut`
  /// must hold m * kernels::kPqLutStride floats.
  void build_lut(const float* q, float* lut) const noexcept;
};

/// Trains per-subspace codebooks on the rows of `train` (typically
/// residuals against a coarse quantizer): m subspaces (clamped to [1,
/// dims]), ksub = min(256, train rows), subspace s seeded with seed + s.
[[nodiscard]] PqCodebooks pq_train(const MatrixF& train, std::size_t m,
                                   std::uint64_t seed, std::size_t threads,
                                   ml::KMeansAssign assign);

/// Encodes every row of `rows` into `codes` (rows x m bytes, row-major).
/// Assignment runs on the exact k-means engine: byte-identical across
/// `threads` and to the naive nearest-codeword scan.
void pq_encode(const PqCodebooks& pq, const MatrixF& rows, std::size_t threads,
               ml::KMeansAssign assign, std::uint8_t* codes);

/// Fixed-layout "qmet" snapshot section: which quantizer a snapshot
/// carries and the shape needed to reconstruct it.
struct QuantMeta {
  std::uint32_t kind = 0;  ///< 1 = sq8, 2 = ivfpq
  DistanceMetric metric = DistanceMetric::kCosine;
  std::uint64_t m = 0;
  std::uint64_t ksub = 0;
  std::uint64_t nlist = 0;
};

inline constexpr std::uint32_t kQuantKindSq8 = 1;
inline constexpr std::uint32_t kQuantKindIvfPq = 2;

[[nodiscard]] std::vector<std::uint8_t> encode_quant_meta(const QuantMeta& meta);
/// Throws store::SnapshotError(kBadHeader) on malformed payloads.
[[nodiscard]] QuantMeta decode_quant_meta(std::span<const std::uint8_t> bytes);

/// Recomputes exact float distances (FlatIndex's formulas, same rounding)
/// for the candidate ids in `cand` against `floats`, then keeps the top-k
/// by (distance, id). The quantized-index rerank stage: `query` is the
/// caller's raw, unnormalized query.
void exact_rerank(const store::EmbeddingView& floats, DistanceMetric metric,
                  std::span<const float> query, std::vector<Neighbor>& cand,
                  std::size_t k);

}  // namespace v2v::index
