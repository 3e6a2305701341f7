#include "v2v/index/quantizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "v2v/common/check.hpp"
#include "v2v/common/kernels.hpp"
#include "v2v/common/thread_pool.hpp"
#include "v2v/store/snapshot.hpp"

namespace v2v::index {
namespace {

/// dst (cols x rows) = the transpose of row-major src (rows x cols).
void transpose(const float* src, float* dst, std::size_t rows,
               std::size_t cols) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

/// Zeroed books for `dims` split into m subspaces; m must be in [1, dims].
PqCodebooks shaped_books(std::size_t dims, std::size_t m, std::size_t ksub) {
  PqCodebooks pq;
  pq.dims = dims;
  pq.m = m;
  pq.ksub = ksub;
  // Unequal split: the first dims % m subspaces get one extra dimension.
  pq.sub_offset.assign(m + 1, 0);
  const std::size_t base = dims / m;
  const std::size_t extra = dims % m;
  for (std::size_t s = 0; s < m; ++s) {
    pq.sub_offset[s + 1] = pq.sub_offset[s] + base + (s < extra ? 1 : 0);
  }
  pq.books.assign(256 * dims, 0.0f);
  return pq;
}

}  // namespace

Sq8Quantizer Sq8Quantizer::train(const MatrixF& rows) {
  V2V_CHECK(rows.rows() > 0, "sq8: empty training matrix");
  Sq8Quantizer q;
  q.dims = rows.cols();
  q.vmin.assign(q.dims, 0.0f);
  AlignedVector<float> vmax(q.dims, 0.0f);
  const auto first = rows.row(0);
  std::copy(first.begin(), first.end(), q.vmin.begin());
  std::copy(first.begin(), first.end(), vmax.begin());
  for (std::size_t r = 1; r < rows.rows(); ++r) {
    const auto row = rows.row(r);
    for (std::size_t j = 0; j < q.dims; ++j) {
      q.vmin[j] = std::min(q.vmin[j], row[j]);
      vmax[j] = std::max(vmax[j], row[j]);
    }
  }
  q.scale.assign(q.dims, 0.0f);
  for (std::size_t j = 0; j < q.dims; ++j) {
    q.scale[j] = (vmax[j] - q.vmin[j]) / 255.0f;
  }
  return q;
}

void Sq8Quantizer::encode_row(std::span<const float> row,
                              std::uint8_t* out) const noexcept {
  for (std::size_t j = 0; j < dims; ++j) {
    if (scale[j] <= 0.0f) {
      out[j] = 0;
      continue;
    }
    const float t = (row[j] - vmin[j]) / scale[j];
    const long code = std::lround(t);
    out[j] = static_cast<std::uint8_t>(std::clamp<long>(code, 0, 255));
  }
}

PqCodebooks PqCodebooks::from_pqbk(std::size_t dims, std::size_t m,
                                   std::size_t ksub,
                                   std::span<const std::uint8_t> bytes) {
  if (dims > bytes.size() / (256 * sizeof(float)) ||
      bytes.size() != 256 * dims * sizeof(float)) {
    throw store::SnapshotError(store::SnapshotErrorCode::kBadHeader,
                               "snapshot: pqbk size does not match 256 x dims");
  }
  PqCodebooks pq = shaped_books(dims, m, ksub);
  std::vector<float> raw(256 * dims);
  std::memcpy(raw.data(), bytes.data(), bytes.size());
  for (std::size_t s = 0; s < m; ++s) {
    transpose(raw.data() + 256 * pq.sub_offset[s], pq.book(s), 256,
              pq.sub_dim(s));
  }
  return pq;
}

std::vector<std::uint8_t> PqCodebooks::to_pqbk() const {
  std::vector<float> raw(books.size());
  for (std::size_t s = 0; s < m; ++s) {
    transpose(book(s), raw.data() + 256 * sub_offset[s], sub_dim(s), 256);
  }
  std::vector<std::uint8_t> out(raw.size() * sizeof(float));
  std::memcpy(out.data(), raw.data(), out.size());
  return out;
}

PqCodebooks pq_train(const MatrixF& train, std::size_t m, std::uint64_t seed,
                     std::size_t threads, ml::KMeansAssign assign) {
  V2V_CHECK(train.rows() > 0, "pq: empty training matrix");
  const std::size_t dims = train.cols();
  PqCodebooks pq = shaped_books(dims, std::clamp<std::size_t>(m, 1, dims),
                                std::min<std::size_t>(256, train.rows()));
  for (std::size_t s = 0; s < pq.m; ++s) {
    const std::size_t d = pq.sub_dim(s);
    MatrixF sub(train.rows(), d);
    for (std::size_t r = 0; r < train.rows(); ++r) {
      const auto src = train.row(r);
      const auto dst = sub.row(r);
      std::copy(src.begin() + static_cast<std::ptrdiff_t>(pq.sub_offset[s]),
                src.begin() + static_cast<std::ptrdiff_t>(pq.sub_offset[s + 1]),
                dst.begin());
    }
    ml::KMeansConfig kc;
    kc.k = pq.ksub;
    kc.max_iterations = kQuantizerIterations;
    kc.restarts = 1;
    kc.seed = seed + s;  // distinct deterministic stream per subspace
    kc.threads = std::max<std::size_t>(1, threads);
    kc.assign = assign;
    const ml::KMeansResult trained = ml::kmeans(sub, kc);
    float* book = pq.book(s);
    for (std::size_t c = 0; c < pq.ksub; ++c) {
      const auto src = trained.centroids.row(c);
      for (std::size_t j = 0; j < d; ++j) {
        book[j * kernels::kPqLutStride + c] = static_cast<float>(src[j]);
      }
    }
  }
  return pq;
}

void pq_encode(const PqCodebooks& pq, const MatrixF& rows, std::size_t threads,
               ml::KMeansAssign assign, std::uint8_t* codes) {
  V2V_CHECK(rows.cols() == pq.dims, "pq_encode: dims mismatch");
  const std::size_t n = rows.rows();
  for (std::size_t s = 0; s < pq.m; ++s) {
    const std::size_t d = pq.sub_dim(s);
    MatrixF sub(n, d);
    parallel_for_dynamic(
        std::max<std::size_t>(1, threads), n, 0,
        [&](std::size_t, std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t r = begin; r < end; ++r) {
            const auto src = rows.row(r);
            const auto dst = sub.row(r);
            std::copy(
                src.begin() + static_cast<std::ptrdiff_t>(pq.sub_offset[s]),
                src.begin() + static_cast<std::ptrdiff_t>(pq.sub_offset[s + 1]),
                dst.begin());
          }
        });
    // The float books are the source of truth (they are what snapshots
    // carry); promote once so build-time and loaded-from-snapshot encodes
    // agree bit for bit.
    MatrixD codewords(pq.ksub, d);
    const float* book = pq.book(s);
    for (std::size_t c = 0; c < pq.ksub; ++c) {
      const auto dst = codewords.row(c);
      for (std::size_t j = 0; j < d; ++j) {
        dst[j] = static_cast<double>(book[j * kernels::kPqLutStride + c]);
      }
    }
    const std::vector<std::uint32_t> assignment =
        ml::assign_to_centroids(sub, codewords, std::max<std::size_t>(1, threads),
                                assign);
    for (std::size_t r = 0; r < n; ++r) {
      codes[r * pq.m + s] = static_cast<std::uint8_t>(assignment[r]);
    }
  }
}

void PqCodebooks::build_lut(const float* q, float* lut) const noexcept {
  for (std::size_t s = 0; s < m; ++s) {
    kernels::pq_lut(q + sub_offset[s], book(s), sub_dim(s),
                    lut + s * kernels::kPqLutStride);
  }
}

std::vector<std::uint8_t> encode_quant_meta(const QuantMeta& meta) {
  std::vector<std::uint8_t> out(40, 0);
  auto put = [&out](std::size_t at, const auto& v) {
    std::memcpy(out.data() + at, &v, sizeof(v));
  };
  put(0, meta.kind);
  const std::uint32_t metric = meta.metric == DistanceMetric::kEuclidean ? 1u : 0u;
  put(4, metric);
  put(8, meta.m);
  put(16, meta.ksub);
  put(24, meta.nlist);
  return out;
}

QuantMeta decode_quant_meta(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 40) {
    throw store::SnapshotError(store::SnapshotErrorCode::kBadHeader,
                               "snapshot: qmet section too short");
  }
  auto get = [&bytes](std::size_t at, auto& v) {
    std::memcpy(&v, bytes.data() + at, sizeof(v));
  };
  QuantMeta meta;
  std::uint32_t metric = 0;
  get(0, meta.kind);
  get(4, metric);
  get(8, meta.m);
  get(16, meta.ksub);
  get(24, meta.nlist);
  if ((meta.kind != kQuantKindSq8 && meta.kind != kQuantKindIvfPq) ||
      metric > 1) {
    throw store::SnapshotError(store::SnapshotErrorCode::kBadHeader,
                               "snapshot: unknown quantizer kind or metric");
  }
  meta.metric = metric == 1 ? DistanceMetric::kEuclidean
                            : DistanceMetric::kCosine;
  return meta;
}

void exact_rerank(const store::EmbeddingView& floats, DistanceMetric metric,
                  std::span<const float> query, std::vector<Neighbor>& cand,
                  std::size_t k) {
  const float* q = query.data();
  const std::size_t d = floats.dimensions();
  if (metric == DistanceMetric::kCosine) {
    // Same arithmetic as FlatIndex / vec_math cosine_distance, so reranked
    // distances are bit-identical to the exact oracle's.
    const double nq = std::sqrt(kernels::ddot(q, q, d));
    for (auto& c : cand) {
      const float* row = floats.row(c.id).data();
      const double nr = std::sqrt(kernels::ddot(row, row, d));
      c.distance = (nq == 0.0 || nr == 0.0)
                       ? 1.0
                       : 1.0 - kernels::ddot(q, row, d) / (nq * nr);
    }
  } else {
    for (auto& c : cand) {
      c.distance = kernels::sqdist(q, floats.row(c.id).data(), d);
    }
  }
  k = std::min(k, cand.size());
  std::partial_sort(cand.begin(), cand.begin() + static_cast<std::ptrdiff_t>(k),
                    cand.end(), neighbor_less);
  cand.resize(k);
}

}  // namespace v2v::index
