#include "v2v/index/ivfpq_index.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "v2v/common/kernels.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/common/thread_pool.hpp"
#include "v2v/common/vec_math.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/store/snapshot.hpp"

namespace v2v::index {
namespace {

[[noreturn]] void bad_sections(const std::string& detail) {
  throw store::SnapshotError(store::SnapshotErrorCode::kBadHeader,
                             "snapshot: " + detail);
}

void copy_floats(std::span<const std::uint8_t> bytes, float* dst,
                 std::size_t count) {
  std::memcpy(dst, bytes.data(), count * sizeof(float));
}

}  // namespace

IvfPqIndex::IvfPqIndex(store::EmbeddingView data, DistanceMetric metric,
                       IvfPqConfig config)
    : rows_(data.rows()), dims_(data.dimensions()), metric_(metric),
      nprobe_(config.nprobe), rerank_(config.rerank) {
  if (rows_ == 0) throw std::invalid_argument("ivfpq: empty embedding");
  const obs::ScopedTimer span(config.metrics, "ivfpq_build");
  const bool cosine = metric_ == DistanceMetric::kCosine;
  const std::size_t threads = std::max<std::size_t>(1, config.threads);

  // Metric-normalized working copy (IvfIndex convention: cosine rows are
  // unit, zero rows stay zero).
  MatrixF normalized(rows_, dims_);
  parallel_for_dynamic(threads, rows_, 0,
                       [&](std::size_t, std::size_t, std::size_t begin,
                           std::size_t end) {
                         for (std::size_t r = begin; r < end; ++r) {
                           const auto src = data.row(r);
                           const auto dst = normalized.row(r);
                           std::copy(src.begin(), src.end(), dst.begin());
                           if (cosine) normalize(dst);
                         }
                       });

  // --- Coarse quantizer over a deterministic sample (as IvfIndex). ------
  std::size_t sample_count = rows_;
  std::vector<std::size_t> sample;  // empty = identity
  if (config.train_sample != 0 && config.train_sample < rows_) {
    Rng rng(config.seed ^ 0x1c0ffee5eedULL);
    sample = rng.sample_indices(rows_, config.train_sample);
    sample_count = sample.size();
  }
  std::size_t nlist = config.nlist;
  if (nlist == 0) {
    nlist = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(rows_))));
  }
  nlist = std::clamp<std::size_t>(nlist, 1, sample_count);

  MatrixF train(sample_count, dims_);
  for (std::size_t i = 0; i < sample_count; ++i) {
    const std::size_t src = sample.empty() ? i : sample[i];
    const auto row = normalized.row(src);
    std::copy(row.begin(), row.end(), train.row(i).begin());
  }

  ml::KMeansConfig kc;
  kc.k = nlist;
  kc.max_iterations = std::max<std::size_t>(1, config.kmeans_iterations);
  kc.restarts = std::max<std::size_t>(1, config.kmeans_restarts);
  kc.seed = config.seed;
  kc.threads = threads;
  kc.assign = config.kmeans_assign;
  kc.metrics = config.metrics;
  const ml::KMeansResult trained = ml::kmeans(train, kc);

  coarse_ = MatrixF(nlist, dims_);
  for (std::size_t c = 0; c < nlist; ++c) {
    const auto src = trained.centroids.row(c);
    const auto dst = coarse_.row(c);
    for (std::size_t j = 0; j < dims_; ++j) dst[j] = static_cast<float>(src[j]);
  }

  const std::vector<std::uint32_t> assignment = ml::assign_to_centroids(
      normalized, trained.centroids, threads, config.kmeans_assign);

  // --- Residuals against the float cell centers (what snapshots carry,
  // and what queries subtract — build/query geometry matches exactly).
  MatrixF residuals(rows_, dims_);
  parallel_for_dynamic(
      threads, rows_, 0,
      [&](std::size_t, std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const auto src = normalized.row(r);
          const auto dst = residuals.row(r);
          std::copy(src.begin(), src.end(), dst.begin());
          kernels::axpy(-1.0f, coarse_.row(assignment[r]).data(), dst.data(),
                        dims_);
        }
      });

  // --- PQ codebooks on sampled residuals, codes for every row. ----------
  MatrixF pq_sample(sample_count, dims_);
  for (std::size_t i = 0; i < sample_count; ++i) {
    const std::size_t src = sample.empty() ? i : sample[i];
    const auto row = residuals.row(src);
    std::copy(row.begin(), row.end(), pq_sample.row(i).begin());
  }
  PqTrainConfig pc;
  pc.m = config.m;
  pc.kmeans_iterations = std::max<std::size_t>(1, config.kmeans_iterations);
  pc.kmeans_restarts = std::max<std::size_t>(1, config.kmeans_restarts);
  pc.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
  pc.threads = threads;
  pc.assign = config.kmeans_assign;
  pq_ = pq_train(pq_sample, pc);

  std::vector<std::uint8_t> row_codes(rows_ * pq_.m);
  pq_encode(pq_, residuals, threads, config.kmeans_assign, row_codes.data());

  // --- Repack codes into contiguous per-list postings (stable by id). ---
  list_offsets_.assign(nlist + 1, 0);
  for (const std::uint32_t a : assignment) ++list_offsets_[a + 1];
  for (std::size_t c = 0; c < nlist; ++c) {
    list_offsets_[c + 1] += list_offsets_[c];
  }
  codes_owned_.resize(rows_ * pq_.m);
  ids_owned_.resize(rows_);
  std::vector<std::size_t> cursor(list_offsets_.begin(),
                                  list_offsets_.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t slot = cursor[assignment[r]]++;
    ids_owned_[slot] = static_cast<std::uint32_t>(r);
    std::memcpy(codes_owned_.data() + slot * pq_.m,
                row_codes.data() + r * pq_.m, pq_.m);
  }
  codes_ = codes_owned_;
  ids_ = ids_owned_;
  set_rerank_data(data);

  if (config.metrics != nullptr) {
    config.metrics->gauge("ivfpq.nlist").set(static_cast<double>(nlist));
    config.metrics->gauge("ivfpq.m").set(static_cast<double>(pq_.m));
    config.metrics->gauge("ivfpq.build_threads").set(
        static_cast<double>(threads));
    config.metrics->counter("ivfpq.rows").add(rows_);
    config.metrics->gauge("ivfpq.build_seconds").set(span.seconds());
  }
}

std::unique_ptr<IvfPqIndex> IvfPqIndex::from_snapshot(
    const store::MappedSnapshot& snap, IvfPqConfig config) {
  const QuantMeta meta = decode_quant_meta(snap.section("qmet"));
  if (meta.kind != kQuantKindIvfPq) {
    bad_sections("qmet does not describe an ivfpq index");
  }
  auto out = std::make_unique<IvfPqIndex>(BuildTag{});
  out->rows_ = snap.rows();
  out->dims_ = snap.dimensions();
  out->metric_ = meta.metric;
  out->nprobe_.store(config.nprobe, std::memory_order_relaxed);
  out->rerank_.store(config.rerank, std::memory_order_relaxed);
  if (out->rows_ == 0) throw std::invalid_argument("ivfpq: empty snapshot");

  const auto m = static_cast<std::size_t>(meta.m);
  const auto ksub = static_cast<std::size_t>(meta.ksub);
  const auto nlist = static_cast<std::size_t>(meta.nlist);
  if (m == 0 || m > out->dims_ || ksub == 0 || ksub > 256 || nlist == 0) {
    bad_sections("qmet shape out of range");
  }

  out->pq_ = PqCodebooks::from_pqbk(out->dims_, m, ksub, snap.section("pqbk"));

  const auto coarse = snap.section("pqcc");
  if (coarse.size() != nlist * out->dims_ * sizeof(float)) {
    bad_sections("pqcc size does not match nlist x dims");
  }
  out->coarse_ = MatrixF(nlist, out->dims_);
  for (std::size_t c = 0; c < nlist; ++c) {
    copy_floats(coarse.subspan(c * out->dims_ * sizeof(float),
                               out->dims_ * sizeof(float)),
                out->coarse_.row(c).data(), out->dims_);
  }

  const auto codes = snap.section("pqcd");
  if (codes.size() != out->rows_ * m) {
    bad_sections("pqcd size does not match rows x m");
  }
  out->codes_ = codes;  // zero-copy from the mapping

  const auto ids = snap.section("pqid");
  if (ids.size() != out->rows_ * sizeof(std::uint32_t)) {
    bad_sections("pqid size does not match rows");
  }
  out->ids_ = {reinterpret_cast<const std::uint32_t*>(ids.data()), out->rows_};
  // Served ids index the float matrix in rerank and go back to clients.
  if (std::any_of(out->ids_.begin(), out->ids_.end(),
                  [rows = out->rows_](std::uint32_t id) { return id >= rows; })) {
    bad_sections("pqid holds an id >= rows");
  }

  const auto lists = snap.section("pqls");
  if (lists.size() != (nlist + 1) * sizeof(std::uint64_t)) {
    bad_sections("pqls size does not match nlist + 1");
  }
  out->list_offsets_.resize(nlist + 1);
  for (std::size_t c = 0; c <= nlist; ++c) {
    std::uint64_t v = 0;
    std::memcpy(&v, lists.data() + c * sizeof(std::uint64_t), sizeof(v));
    out->list_offsets_[c] = static_cast<std::size_t>(v);
  }
  if (out->list_offsets_.front() != 0 ||
      out->list_offsets_.back() != out->rows_ ||
      !std::is_sorted(out->list_offsets_.begin(), out->list_offsets_.end())) {
    bad_sections("pqls offsets inconsistent");
  }

  if (snap.has_floats()) out->set_rerank_data(snap.float_view());
  return out;
}

void IvfPqIndex::save_sections(store::SnapshotBuilder& builder) const {
  QuantMeta meta;
  meta.kind = kQuantKindIvfPq;
  meta.metric = metric_;
  meta.m = pq_.m;
  meta.ksub = pq_.ksub;
  meta.nlist = nlist();
  builder.add_section("qmet", encode_quant_meta(meta));

  builder.add_section("pqbk", pq_.to_pqbk());

  std::vector<std::uint8_t> coarse(nlist() * dims_ * sizeof(float));
  for (std::size_t c = 0; c < nlist(); ++c) {
    std::memcpy(coarse.data() + c * dims_ * sizeof(float),
                coarse_.row(c).data(), dims_ * sizeof(float));
  }
  builder.add_section("pqcc", std::move(coarse));

  builder.add_section("pqcd", {codes_.begin(), codes_.end()});

  std::vector<std::uint8_t> ids(ids_.size() * sizeof(std::uint32_t));
  std::memcpy(ids.data(), ids_.data(), ids.size());
  builder.add_section("pqid", std::move(ids));

  std::vector<std::uint8_t> lists(list_offsets_.size() *
                                  sizeof(std::uint64_t));
  for (std::size_t c = 0; c < list_offsets_.size(); ++c) {
    const auto v = static_cast<std::uint64_t>(list_offsets_[c]);
    std::memcpy(lists.data() + c * sizeof(std::uint64_t), &v, sizeof(v));
  }
  builder.add_section("pqls", std::move(lists));
}

void IvfPqIndex::search_into(std::span<const float> query, std::size_t k,
                             std::vector<Neighbor>& out) const {
  out.clear();
  k = std::min(k, rows_);
  if (k == 0) return;
  const std::size_t lists = nlist();
  const bool cosine = metric_ == DistanceMetric::kCosine;

  thread_local std::vector<float> qbuf;
  const float* q = query.data();
  if (cosine) {
    qbuf.assign(query.begin(), query.end());
    normalize(std::span<float>(qbuf));
    q = qbuf.data();
  }

  // Rank the coarse cells; probe the nprobe nearest.
  thread_local std::vector<Neighbor> ranked;
  ranked.clear();
  ranked.reserve(lists);
  for (std::size_t c = 0; c < lists; ++c) {
    ranked.push_back({static_cast<std::uint32_t>(c),
                      kernels::sqdist(q, coarse_.row(c).data(), dims_)});
  }
  const std::size_t probes = std::min(
      std::max<std::size_t>(1, nprobe_.load(std::memory_order_relaxed)),
      lists);
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(probes),
                    ranked.end(), neighbor_less);

  thread_local std::vector<float> resq;
  thread_local std::vector<float> lut;
  thread_local std::vector<Neighbor> scored;
  resq.resize(dims_);
  lut.resize(pq_.m * kernels::kPqLutStride);
  scored.clear();

  for (std::size_t p = 0; p < probes; ++p) {
    const std::size_t list = ranked[p].id;
    // Query residual against this cell, then its ADC table.
    std::copy(q, q + dims_, resq.begin());
    kernels::axpy(-1.0f, coarse_.row(list).data(), resq.data(), dims_);
    pq_.build_lut(resq.data(), lut.data());
    for (std::size_t slot = list_offsets_[list];
         slot < list_offsets_[list + 1]; ++slot) {
      const std::uint8_t* code = codes_.data() + slot * pq_.m;
      const double adc =
          static_cast<double>(kernels::pq_adc(lut.data(), code, pq_.m));
      // Unit-sphere rows: ||q - x||^2 = 2 (1 - cos), so halving the ADC
      // estimate lands on the cosine-distance scale.
      scored.push_back({ids_[slot], cosine ? 0.5 * adc : adc});
    }
  }

  const std::size_t r_depth = rerank_.load(std::memory_order_relaxed);
  const bool do_rerank = r_depth > 0 && has_floats_;
  const std::size_t keep =
      std::min(do_rerank ? std::max(k, r_depth) : k, scored.size());
  const auto keep_end = scored.begin() + static_cast<std::ptrdiff_t>(keep);
  if (do_rerank) {
    // Rerank re-scores and re-sorts the candidates under the total order
    // (distance, id), so only the set of the top `keep` matters here.
    std::nth_element(scored.begin(), keep_end, scored.end(), neighbor_less);
    scored.resize(keep);
    exact_rerank(floats_, metric_, query, scored, k);
  } else {
    std::partial_sort(scored.begin(), keep_end, scored.end(), neighbor_less);
    scored.resize(keep);
  }
  k = std::min(k, scored.size());
  out.assign(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(k));
}

double IvfPqIndex::warm_rows(std::size_t begin, std::size_t end) const {
  double sum = 0.0;
  end = std::min(end, rows_);
  for (std::size_t slot = begin; slot < end; ++slot) {
    const std::uint8_t* code = codes_.data() + slot * pq_.m;
    std::uint64_t acc = 0;
    for (std::size_t j = 0; j < pq_.m; ++j) acc += code[j];
    sum += static_cast<double>(acc) + static_cast<double>(ids_[slot]);
  }
  return sum;
}

double IvfPqIndex::bytes_per_vector() const noexcept {
  const double per_vector =
      static_cast<double>(pq_.m) + static_cast<double>(sizeof(std::uint32_t));
  const double fixed =
      static_cast<double>(pq_.books.size() * sizeof(float)) +
      static_cast<double>(nlist() * dims_ * sizeof(float)) +
      static_cast<double>(list_offsets_.size() * sizeof(std::uint64_t));
  return per_vector + fixed / static_cast<double>(rows_);
}

}  // namespace v2v::index
