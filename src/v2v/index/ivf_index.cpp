#include "v2v/index/ivf_index.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "v2v/common/kernels.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/common/thread_pool.hpp"
#include "v2v/common/vec_math.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/store/snapshot.hpp"

namespace v2v::index {
namespace {

using store::checked_bytes;

/// Rows sampled for quantizer training (deterministic under the seed).
constexpr std::size_t kTrainSample = 20000;

/// Copies `src` into `dst`, L2-normalizing when `cosine` (zero rows stay
/// zero, so their dot with any unit query is 0 and their cosine distance
/// comes out as the conventional 1).
void load_row(std::span<const float> src, std::span<float> dst, bool cosine) {
  std::copy(src.begin(), src.end(), dst.begin());
  if (cosine) normalize(dst);
}

[[noreturn]] void bad_sections(const std::string& detail) {
  throw store::SnapshotError(store::SnapshotErrorCode::kBadHeader,
                             "snapshot: " + detail);
}

/// Section `name`, which must hold exactly `bytes` bytes.
std::span<const std::uint8_t> sized_section(const store::MappedSnapshot& snap,
                                            const char* name, std::size_t bytes) {
  const auto section = snap.section(name);
  if (section.size() != bytes) {
    bad_sections(std::string(name) + " size does not match the snapshot shape");
  }
  return section;
}

void append_floats(std::vector<std::uint8_t>& out, const float* src,
                   std::size_t count) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(src);
  out.insert(out.end(), bytes, bytes + count * sizeof(float));
}

}  // namespace

IvfIndex::IvfIndex(store::EmbeddingView data, DistanceMetric metric,
                   IvfConfig config)
    : rows_(data.rows()), dims_(data.dimensions()), metric_(metric),
      codec_(config.codec), nprobe_(config.nprobe), rerank_(config.rerank) {
  if (rows_ == 0) throw std::invalid_argument("ivf: empty embedding");
  const obs::ScopedTimer span(config.metrics, "ivf_build");
  const bool cosine = metric_ == DistanceMetric::kCosine;
  const std::size_t threads = std::max<std::size_t>(1, config.threads);
  const auto rows_parallel = [&](const auto& body) {
    parallel_for_dynamic(threads, rows_, 0,
                         [&](std::size_t, std::size_t, std::size_t begin,
                             std::size_t end) {
                           for (std::size_t r = begin; r < end; ++r) body(r);
                         });
  };

  // All rows, metric-normalized once: feeds quantizer training, the
  // assignment pass and the codec without re-reading (and re-normalizing)
  // the backing store.
  MatrixF normalized(rows_, dims_);
  rows_parallel([&](std::size_t r) {
    load_row(data.row(r), normalized.row(r), cosine);
  });

  // --- Coarse quantizer: k-means over a deterministic sample. ------------
  std::vector<std::size_t> sample;  // empty = every row
  if (kTrainSample < rows_) {
    Rng rng(config.seed ^ 0x1c0ffee5eedULL);
    sample = rng.sample_indices(rows_, kTrainSample);
  }
  const std::size_t sample_count = sample.empty() ? rows_ : sample.size();
  const auto sampled = [&](const MatrixF& rows) {
    MatrixF out(sample_count, dims_);
    for (std::size_t i = 0; i < sample_count; ++i) {
      const auto row = rows.row(sample.empty() ? i : sample[i]);
      std::copy(row.begin(), row.end(), out.row(i).begin());
    }
    return out;
  };
  std::size_t nlist = config.nlist;
  if (nlist == 0) {
    nlist = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(rows_))));
  }
  nlist = std::clamp<std::size_t>(nlist, 1, sample_count);

  ml::KMeansConfig kc;
  kc.k = nlist;
  kc.max_iterations = kQuantizerIterations;
  kc.restarts = 1;
  kc.seed = config.seed;
  kc.threads = threads;
  kc.assign = config.kmeans_assign;
  kc.metrics = config.metrics;
  const ml::KMeansResult trained = ml::kmeans(sampled(normalized), kc);
  centroids_ = MatrixF(nlist, dims_);
  for (std::size_t c = 0; c < nlist; ++c) {
    const auto src = trained.centroids.row(c);
    const auto dst = centroids_.row(c);
    for (std::size_t j = 0; j < dims_; ++j) dst[j] = static_cast<float>(src[j]);
  }

  // --- Assignment pass: every row to its nearest trained centroid via
  // the k-means engine's exact norm-cached scan (same double-precision
  // quantizer geometry the Lloyd runs used).
  const std::vector<std::uint32_t> assignment = ml::assign_to_centroids(
      normalized, trained.centroids, threads, config.kmeans_assign);

  // --- Codec: every row's code, in id order. A float code is the
  // normalized row itself, padding included.
  std::vector<std::uint8_t> encoded;
  switch (codec_) {
    case IvfCodec::kFloat:
      code_bytes_ = normalized.stride() * sizeof(float);
      break;
    case IvfCodec::kSq8:
      sq8_ = Sq8Quantizer::train(normalized);
      code_bytes_ = dims_;
      encoded.resize(rows_ * code_bytes_);
      rows_parallel([&](std::size_t r) {
        sq8_.encode_row(normalized.row(r), encoded.data() + r * code_bytes_);
      });
      break;
    case IvfCodec::kPq: {
      // Residuals against the float centroids (what snapshots carry and
      // what queries subtract — build and query geometry match exactly).
      MatrixF residuals(rows_, dims_);
      rows_parallel([&](std::size_t r) {
        const auto src = normalized.row(r);
        const auto dst = residuals.row(r);
        std::copy(src.begin(), src.end(), dst.begin());
        kernels::axpy(-1.0f, centroids_.row(assignment[r]).data(), dst.data(),
                      dims_);
      });
      pq_ = pq_train(sampled(residuals), config.m,
                     config.seed ^ 0x9e3779b97f4a7c15ULL, threads,
                     config.kmeans_assign);
      code_bytes_ = pq_.m;
      encoded.resize(rows_ * code_bytes_);
      pq_encode(pq_, residuals, threads, config.kmeans_assign, encoded.data());
      break;
    }
  }
  const std::uint8_t* row_codes =
      codec_ == IvfCodec::kFloat
          ? reinterpret_cast<const std::uint8_t*>(normalized.data())
          : encoded.data();

  // --- Repack codes into contiguous per-list postings (stable by id). One
  // list keeps id order, so it needs no id array.
  list_offsets_.assign(nlist + 1, 0);
  for (const std::uint32_t a : assignment) ++list_offsets_[a + 1];
  for (std::size_t c = 0; c < nlist; ++c) list_offsets_[c + 1] += list_offsets_[c];
  std::uint8_t* packed = nullptr;
  if (codec_ == IvfCodec::kFloat) {
    float_codes_ = MatrixF(rows_, dims_);
    packed = reinterpret_cast<std::uint8_t*>(float_codes_.data());
  } else {
    codes_owned_.resize(rows_ * code_bytes_);
    packed = codes_owned_.data();
  }
  ids_owned_.resize(nlist > 1 ? rows_ : 0);
  std::vector<std::size_t> cursor(list_offsets_.begin(), list_offsets_.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t slot = cursor[assignment[r]]++;
    if (nlist > 1) ids_owned_[slot] = static_cast<std::uint32_t>(r);
    std::memcpy(packed + slot * code_bytes_, row_codes + r * code_bytes_,
                code_bytes_);
  }
  codes_ = {packed, rows_ * code_bytes_};
  ids_ = ids_owned_;
  floats_ = data;
  if (codec_ == IvfCodec::kPq) derive_pq_cross(threads);

  if (config.metrics != nullptr) {
    config.metrics->gauge("ivf.nlist").set(static_cast<double>(nlist));
    config.metrics->gauge("ivf.build_threads").set(static_cast<double>(threads));
    config.metrics->counter("ivf.rows").add(rows_);
    auto& sizes = config.metrics->histogram(
        "ivf.list_size",
        {0.0, std::max(1.0, static_cast<double>(rows_)), 64});
    for (std::size_t c = 0; c < nlist; ++c) {
      sizes.record(static_cast<double>(list_size(c)));
    }
    config.metrics->gauge("ivf.build_seconds").set(span.seconds());
  }
}

std::unique_ptr<IvfIndex> IvfIndex::from_snapshot(
    const store::MappedSnapshot& snap, IvfConfig config) {
  const QuantMeta meta = decode_quant_meta(snap.section("qmet"));
  const bool sq8 = config.codec == IvfCodec::kSq8;
  if (meta.kind != (sq8 ? kQuantKindSq8 : kQuantKindIvfPq) ||
      config.codec == IvfCodec::kFloat) {
    bad_sections("qmet does not describe the requested codec");
  }
  auto out = std::make_unique<IvfIndex>(LoadTag{});
  out->rows_ = snap.rows();
  out->dims_ = snap.dimensions();
  out->metric_ = meta.metric;
  out->codec_ = config.codec;
  out->nprobe_.store(config.nprobe, std::memory_order_relaxed);
  out->rerank_.store(config.rerank, std::memory_order_relaxed);
  const std::size_t rows = out->rows_;
  const std::size_t dims = out->dims_;
  if (rows == 0) throw std::invalid_argument("ivf: empty snapshot");

  if (sq8) {
    // One list in id order: no centroids, ids or offsets on disk.
    const auto params =
        sized_section(snap, "sq8p", checked_bytes({2, dims, sizeof(float)}));
    auto& quant = out->sq8_;
    quant.dims = dims;
    quant.vmin.resize(dims);
    quant.scale.resize(dims);
    std::memcpy(quant.vmin.data(), params.data(), dims * sizeof(float));
    std::memcpy(quant.scale.data(), params.data() + dims * sizeof(float),
                dims * sizeof(float));
    out->code_bytes_ = dims;
    out->codes_ = sized_section(snap, "sq8c", checked_bytes({rows, dims}));
    out->centroids_ = MatrixF(1, dims);
    out->list_offsets_ = {0, rows};
  } else {
    const auto m = static_cast<std::size_t>(meta.m);
    const auto ksub = static_cast<std::size_t>(meta.ksub);
    const auto nlist = static_cast<std::size_t>(meta.nlist);
    if (m == 0 || m > dims || ksub == 0 || ksub > 256 || nlist == 0) {
      bad_sections("qmet shape out of range");
    }
    out->pq_ = PqCodebooks::from_pqbk(
        dims, m, ksub,
        sized_section(snap, "pqbk", checked_bytes({256, dims, sizeof(float)})));

    const auto centroids = sized_section(
        snap, "pqcc", checked_bytes({nlist, dims, sizeof(float)}));
    out->centroids_ = MatrixF(nlist, dims);
    for (std::size_t c = 0; c < nlist; ++c) {
      std::memcpy(out->centroids_.row(c).data(),
                  centroids.data() + c * dims * sizeof(float),
                  dims * sizeof(float));
    }

    out->code_bytes_ = m;
    out->codes_ = sized_section(snap, "pqcd", checked_bytes({rows, m}));

    const auto ids =
        sized_section(snap, "pqid", checked_bytes({rows, sizeof(std::uint32_t)}));
    out->ids_ = {reinterpret_cast<const std::uint32_t*>(ids.data()), rows};
    // Served ids index the float matrix in rerank and go back to clients.
    if (std::any_of(out->ids_.begin(), out->ids_.end(),
                    [rows](std::uint32_t id) { return id >= rows; })) {
      bad_sections("pqid holds an id >= rows");
    }

    // nlist * dims * 4 fit above, so nlist + 1 cannot wrap.
    const auto lists = sized_section(
        snap, "pqls", checked_bytes({nlist + 1, sizeof(std::uint64_t)}));
    out->list_offsets_.resize(nlist + 1);
    for (std::size_t c = 0; c <= nlist; ++c) {
      std::uint64_t v = 0;
      std::memcpy(&v, lists.data() + c * sizeof(std::uint64_t), sizeof(v));
      out->list_offsets_[c] = static_cast<std::size_t>(v);
    }
    if (out->list_offsets_.front() != 0 || out->list_offsets_.back() != rows ||
        !std::is_sorted(out->list_offsets_.begin(), out->list_offsets_.end())) {
      bad_sections("pqls offsets inconsistent");
    }
    out->derive_pq_cross(std::max<std::size_t>(1, config.threads));
  }

  if (snap.has_floats()) out->floats_ = snap.float_view();
  return out;
}

void IvfIndex::save_sections(store::SnapshotBuilder& builder) const {
  if (codec_ == IvfCodec::kFloat) {
    throw std::logic_error("ivf: float codes have no snapshot sections");
  }
  QuantMeta meta;
  meta.metric = metric_;
  if (codec_ == IvfCodec::kSq8) {
    if (nlist() > 1) {
      throw std::logic_error("ivf: an sq8 snapshot holds one list (nlist 1)");
    }
    meta.kind = kQuantKindSq8;
    builder.add_section("qmet", encode_quant_meta(meta));
    std::vector<std::uint8_t> params;
    append_floats(params, sq8_.vmin.data(), dims_);
    append_floats(params, sq8_.scale.data(), dims_);
    builder.add_section("sq8p", std::move(params));
    builder.add_section("sq8c", {codes_.begin(), codes_.end()});
    return;
  }

  meta.kind = kQuantKindIvfPq;
  meta.m = pq_.m;
  meta.ksub = pq_.ksub;
  meta.nlist = nlist();
  builder.add_section("qmet", encode_quant_meta(meta));
  builder.add_section("pqbk", pq_.to_pqbk());
  std::vector<std::uint8_t> centroids;
  for (std::size_t c = 0; c < nlist(); ++c) {
    append_floats(centroids, centroids_.row(c).data(), dims_);
  }
  builder.add_section("pqcc", std::move(centroids));
  builder.add_section("pqcd", {codes_.begin(), codes_.end()});

  std::vector<std::uint8_t> ids(rows_ * sizeof(std::uint32_t));
  for (std::size_t slot = 0; slot < rows_; ++slot) {
    const std::uint32_t id =
        ids_.empty() ? static_cast<std::uint32_t>(slot) : ids_[slot];
    std::memcpy(ids.data() + slot * sizeof(id), &id, sizeof(id));
  }
  builder.add_section("pqid", std::move(ids));

  std::vector<std::uint8_t> lists(list_offsets_.size() * sizeof(std::uint64_t));
  for (std::size_t c = 0; c < list_offsets_.size(); ++c) {
    const auto v = static_cast<std::uint64_t>(list_offsets_[c]);
    std::memcpy(lists.data() + c * sizeof(v), &v, sizeof(v));
  }
  builder.add_section("pqls", std::move(lists));
}

void IvfIndex::derive_pq_cross(std::size_t threads) {
  pq_cross_.resize(rows_);
  const std::size_t m = pq_.m;
  constexpr std::size_t kStride = kernels::kPqLutStride;
  parallel_for_dynamic(
      threads, nlist(), 0,
      [&](std::size_t, std::size_t, std::size_t begin, std::size_t end) {
        // Per list, a table laid out like the ADC table: dots[s * kStride
        // + w] = <c, codeword w of subspace s> over the subspace's
        // dimensions (books row j holds dimension j of every codeword).
        // Summing a code's m entries gives <c, r>.
        std::vector<float> dots(m * kStride);
        for (std::size_t list = begin; list < end; ++list) {
          const float* const c = centroids_.row(list).data();
          std::fill(dots.begin(), dots.end(), 0.0f);
          for (std::size_t s = 0; s < m; ++s) {
            for (std::size_t j = pq_.sub_offset[s]; j < pq_.sub_offset[s + 1]; ++j) {
              kernels::axpy(c[j], pq_.books.data() + j * kStride,
                            dots.data() + s * kStride, kStride);
            }
          }
          for (std::size_t slot = list_offsets_[list];
               slot < list_offsets_[list + 1]; ++slot) {
            pq_cross_[slot] =
                2.0f * kernels::pq_adc(dots.data(), codes_.data() + slot * m, m);
          }
        }
      });
}

void IvfIndex::search_into(std::span<const float> query, std::size_t k,
                           std::vector<Neighbor>& out) const {
  out.clear();
  k = std::min(k, rows_);
  if (k == 0) return;
  const std::size_t lists = nlist();
  const std::size_t dims = dims_;
  const bool cosine = metric_ == DistanceMetric::kCosine;

  thread_local std::vector<float> qbuf;
  const float* q = query.data();
  if (cosine) {
    qbuf.assign(query.begin(), query.end());
    normalize(std::span<float>(qbuf));
    q = qbuf.data();
  }

  // Rank the coarse centroids; probe the nprobe nearest lists.
  thread_local std::vector<Neighbor> coarse;
  coarse.clear();
  coarse.reserve(lists);
  for (std::size_t c = 0; c < lists; ++c) {
    coarse.push_back({static_cast<std::uint32_t>(c),
                      kernels::sqdist(q, centroids_.row(c).data(), dims)});
  }
  const std::size_t probes =
      std::min(std::max<std::size_t>(1, nprobe_.load(std::memory_order_relaxed)),
               lists);
  std::partial_sort(coarse.begin(),
                    coarse.begin() + static_cast<std::ptrdiff_t>(probes),
                    coarse.end(), neighbor_less);

  thread_local std::vector<float> lut;
  thread_local std::vector<Neighbor> scored;
  scored.clear();
  // kPq: the query's one ADC table, ||q - r||² per subspace codeword, and
  // ||q||², which the split subtracts from each coarse distance.
  double query_norm = 0.0;
  if (codec_ == IvfCodec::kPq) {
    lut.resize(pq_.m * kernels::kPqLutStride);
    pq_.build_lut(q, lut.data());
    query_norm = kernels::ddot(q, q, dims);
  }
  const float* const rows = float_codes_.data();
  const std::size_t row_stride = float_codes_.stride();
  const std::uint8_t* const codes = codes_.data();
  const std::uint32_t* const ids = ids_.empty() ? nullptr : ids_.data();
  const float* const vmin = sq8_.vmin.data();
  const float* const scale = sq8_.scale.data();
  const std::size_t m = pq_.m;
  const float* const table = lut.data();
  const float* const cross = pq_cross_.data();

  for (std::size_t p = 0; p < probes; ++p) {
    const std::size_t list = coarse[p].id;
    // The codec is picked once per list and the id source once per scan,
    // never per code; `score` maps a slot to its distance.
    const auto scan = [&, begin = list_offsets_[list],
                       end = list_offsets_[list + 1]](const auto& score) {
      if (ids == nullptr) {
        for (std::size_t slot = begin; slot < end; ++slot) {
          scored.push_back({static_cast<std::uint32_t>(slot), score(slot)});
        }
      } else {
        for (std::size_t slot = begin; slot < end; ++slot) {
          scored.push_back({ids[slot], score(slot)});
        }
      }
    };
    switch (codec_) {
      case IvfCodec::kFloat:
        scan([&](std::size_t slot) {
          const float* row = rows + slot * row_stride;
          return cosine ? 1.0 - kernels::ddot(q, row, dims)
                        : kernels::sqdist(q, row, dims);
        });
        break;
      case IvfCodec::kSq8:
        scan([&](std::size_t slot) {
          const std::uint8_t* code = codes + slot * dims;
          return cosine ? 1.0 - static_cast<double>(
                                    kernels::sq8_dot(q, code, vmin, scale, dims))
                        : static_cast<double>(
                              kernels::sq8_sqdist(q, code, vmin, scale, dims));
        });
        break;
      case IvfCodec::kPq: {
        // ||q - c - r||² = (||q - c||² - ||q||²) + ||q - r||² + 2<c, r>.
        const double coarse_term = coarse[p].distance - query_norm;
        scan([&](std::size_t slot) {
          const double adc =
              coarse_term +
              static_cast<double>(kernels::pq_adc(table, codes + slot * m, m)) +
              static_cast<double>(cross[slot]);
          // Unit-sphere rows: ||q - x||^2 = 2 (1 - cos), so halving the
          // ADC estimate lands on the cosine-distance scale.
          return cosine ? 0.5 * adc : adc;
        });
        break;
      }
    }
  }

  const std::size_t depth = rerank_.load(std::memory_order_relaxed);
  const bool rerank = depth > 0 && floats_.rows() > 0;
  const std::size_t keep =
      std::min(rerank ? std::max(k, depth) : k, scored.size());
  const auto keep_end = scored.begin() + static_cast<std::ptrdiff_t>(keep);
  if (rerank) {
    // Rerank re-scores and re-sorts the candidates under the total order
    // (distance, id), so only the set of the top `keep` matters here.
    std::nth_element(scored.begin(), keep_end, scored.end(), neighbor_less);
    scored.resize(keep);
    exact_rerank(floats_, metric_, query, scored, k);
    out.assign(scored.begin(), scored.end());
  } else {
    std::partial_sort(scored.begin(), keep_end, scored.end(), neighbor_less);
    out.assign(scored.begin(), keep_end);
  }
}

double IvfIndex::warm_rows(std::size_t begin, std::size_t end) const {
  end = std::min(end, rows_);
  std::uint64_t sum = 0;
  for (std::size_t i = begin * code_bytes_; i < end * code_bytes_; ++i) {
    sum += codes_[i];
  }
  for (std::size_t slot = begin; slot < end && !ids_.empty(); ++slot) {
    sum += ids_[slot];
  }
  return static_cast<double>(sum);
}

double IvfIndex::bytes_per_vector() const noexcept {
  const double per_vector = static_cast<double>(
      code_bytes_ + (ids_.empty() ? 0 : sizeof(std::uint32_t)) +
      (pq_cross_.empty() ? 0 : sizeof(float)));
  const std::size_t params =
      sq8_.vmin.size() + sq8_.scale.size() + pq_.books.size() + nlist() * dims_;
  const double fixed =
      static_cast<double>(params * sizeof(float)) +
      static_cast<double>(list_offsets_.size() * sizeof(std::uint64_t));
  return per_vector + fixed / static_cast<double>(rows_);
}

}  // namespace v2v::index
