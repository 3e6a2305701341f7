#include "v2v/ml/kmeans.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "v2v/common/check.hpp"
#include "v2v/common/kernels.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/common/thread_pool.hpp"
#include "v2v/obs/metrics.hpp"

namespace v2v::ml {
namespace {

// Fixed assignment grain: a pure function of n, NOT of the thread count,
// so chunk boundaries — and therefore the order per-chunk SSE partials
// are reduced in — are identical for every thread count. This is what
// keeps kmeans() bit-deterministic across `threads`.
constexpr std::size_t kAssignGrain = 1024;

// Blocked point×centroid scan tiles: a kCentroidBlock slab of centroid
// rows (32 × 64 d × 8 B = 16 KiB at d=64) stays L1-resident while
// kPointTile point rows stream against it.
constexpr std::size_t kPointTile = 8;
constexpr std::size_t kCentroidBlock = 32;

// Multiplicative slack applied whenever a Hamerly bound is tightened or
// tested. The double-accumulated kernels round to ~d·eps ≈ 3e-14 relative
// at d=129; 1e-12 dwarfs that, so the bounds stay sound (pruning never
// changes the answer) at a negligible cost in pruning rate.
constexpr double kBoundSlack = 1e-12;

// Certainty margin for the norm-cached scan, in units of
// d·eps·(‖x‖² + max‖c‖²). Covers the accumulated rounding of both
// norm-cached candidates AND of the exact sqdist values the naive oracle
// compares, so a gap wider than the margin proves the oracle — including
// its strict-'<' lowest-index tie-breaking — picks the same centroid.
constexpr double kNcMarginFactor = 32.0;

double point_centroid_sqdist(std::span<const float> p, std::span<const double> c) {
  return kernels::sqdist_fd(p.data(), c.data(), p.size());
}

MatrixD seed_uniform(const MatrixF& points, std::size_t k, Rng& rng) {
  const auto chosen = [&] {
    // Distinct rows via partial Fisher-Yates over indices.
    std::vector<std::size_t> idx(points.rows());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + rng.next_below(idx.size() - i);
      std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
  }();
  MatrixD centroids(k, points.cols());
  for (std::size_t c = 0; c < k; ++c) {
    const auto row = points.row(chosen[c]);
    for (std::size_t i = 0; i < points.cols(); ++i) centroids(c, i) = row[i];
  }
  return centroids;
}

MatrixD seed_plus_plus(const MatrixF& points, std::size_t k, Rng& rng) {
  const std::size_t n = points.rows();
  MatrixD centroids(k, points.cols());
  std::vector<double> dist2(n, std::numeric_limits<double>::max());

  std::size_t first = rng.next_below(n);
  for (std::size_t i = 0; i < points.cols(); ++i) {
    centroids(0, i) = points(first, i);
  }
  for (std::size_t c = 1; c < k; ++c) {
    double total = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      const double d = point_centroid_sqdist(points.row(p), centroids.row(c - 1));
      dist2[p] = std::min(dist2[p], d);
      total += dist2[p];
    }
    std::size_t pick = 0;
    if (total > 0.0) {
      const double target = rng.next_double() * total;
      double acc = 0.0;
      for (std::size_t p = 0; p < n; ++p) {
        acc += dist2[p];
        if (acc >= target) {
          pick = p;
          break;
        }
      }
    } else {
      pick = rng.next_below(n);  // all points identical to current centers
    }
    for (std::size_t i = 0; i < points.cols(); ++i) centroids(c, i) = points(pick, i);
  }
  return centroids;
}

struct ScanResult {
  std::uint32_t best_c = 0;
  double best_sq = std::numeric_limits<double>::infinity();
  double second_sq = std::numeric_limits<double>::infinity();
  std::uint64_t evals = 0;
};

// Full sqdist sweep in centroid-index order with strict '<': the naive
// oracle every other engine must reproduce bit-for-bit. Also tracks the
// runner-up distance, which seeds Hamerly's lower bound.
ScanResult scan_exact(const MatrixF& points, std::size_t p, const MatrixD& centroids) {
  const std::size_t k = centroids.rows();
  ScanResult r;
  for (std::size_t c = 0; c < k; ++c) {
    const double dd = point_centroid_sqdist(points.row(p), centroids.row(c));
    if (dd < r.best_sq) {
      r.second_sq = r.best_sq;
      r.best_sq = dd;
      r.best_c = static_cast<std::uint32_t>(c);
    } else if (dd < r.second_sq) {
      r.second_sq = dd;
    }
  }
  r.evals = k;
  return r;
}

// Norm-cached scan of a tile of <= kPointTile points, blocked over
// centroid rows for L1 reuse. d~(p,c) = ‖x‖² + ‖c‖² − 2⟨x,c⟩ ranks
// candidates on the SIMD dot path; when the gap between the two closest
// candidates cannot prove the oracle would agree, the point falls back to
// the exact scan. Either way out_sq[t] is the exact computed sqdist to
// the winner — the same bits the oracle would produce. out_lb_sq[t] is a
// lower bound on the computed squared distance to every non-winning
// centroid (may be +inf for k == 1).
void scan_tile_nc(const MatrixF& points, const MatrixD& centroids, const double* x2,
                  const double* c2, double c2max, const std::uint32_t* tile,
                  std::size_t tn, std::uint32_t* out_c, double* out_sq,
                  double* out_lb_sq, std::uint64_t* evals) {
  const std::size_t k = centroids.rows();
  const std::size_t d = points.cols();
  double min1[kPointTile];
  double min2[kPointTile];
  std::uint32_t arg1[kPointTile];
  for (std::size_t t = 0; t < tn; ++t) {
    min1[t] = std::numeric_limits<double>::infinity();
    min2[t] = std::numeric_limits<double>::infinity();
    arg1[t] = 0;
  }
  for (std::size_t cb = 0; cb < k; cb += kCentroidBlock) {
    const std::size_t ce = std::min(cb + kCentroidBlock, k);
    for (std::size_t t = 0; t < tn; ++t) {
      const float* px = points.row(tile[t]).data();
      const double xx = x2[tile[t]];
      for (std::size_t c = cb; c < ce; ++c) {
        const double nd =
            xx + c2[c] - 2.0 * kernels::dot_fd(px, centroids.row(c).data(), d);
        if (nd < min1[t]) {
          min2[t] = min1[t];
          min1[t] = nd;
          arg1[t] = static_cast<std::uint32_t>(c);
        } else if (nd < min2[t]) {
          min2[t] = nd;
        }
      }
    }
  }
  *evals += static_cast<std::uint64_t>(tn) * k;
  for (std::size_t t = 0; t < tn; ++t) {
    const std::size_t p = tile[t];
    const double margin = kNcMarginFactor * static_cast<double>(d) *
                          std::numeric_limits<double>::epsilon() * (x2[p] + c2max);
    if (k == 1 || min2[t] - min1[t] > margin) {
      out_c[t] = arg1[t];
      out_sq[t] = point_centroid_sqdist(points.row(p), centroids.row(arg1[t]));
      out_lb_sq[t] = min2[t] - margin;
      *evals += 1;
    } else {
      // Near-tie: the margin cannot certify the winner, so reproduce the
      // oracle verbatim (exact ties therefore always take this path and
      // inherit its lowest-index tie-breaking).
      const ScanResult r = scan_exact(points, p, centroids);
      out_c[t] = r.best_c;
      out_sq[t] = r.best_sq;
      out_lb_sq[t] = r.second_sq;
      *evals += r.evals;
    }
  }
}

struct LloydOutcome {
  std::vector<std::uint32_t> assignment;
  MatrixD centroids;
  double sse = 0.0;
  std::size_t iterations = 0;
  // Engine statistics, folded into the metrics registry by kmeans().
  std::uint64_t dist_evals = 0;
  std::uint64_t pruned_points = 0;
  std::uint64_t assign_points = 0;
  std::vector<double> pruned_by_iter;
  double assign_seconds = 0.0;
  double update_seconds = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

LloydOutcome lloyd(const MatrixF& points, MatrixD centroids,
                   const KMeansConfig& config, std::size_t threads) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  const std::size_t k = centroids.rows();
  const KMeansAssign mode = config.assign;
  const bool hamerly = mode == KMeansAssign::kHamerly;
  const bool cached = mode != KMeansAssign::kNaive;

  LloydOutcome out;
  out.assignment.assign(n, 0);
  std::vector<std::uint32_t>& assign = out.assignment;

  // Exact computed sqdist from each point to its assigned centroid this
  // iteration; feeds the SSE, the Hamerly upper bound, and the
  // empty-cluster reseed (no rescan needed).
  std::vector<double> best_sq(n, 0.0);
  std::vector<double> x2;
  if (cached) {
    x2.resize(n);
    parallel_for_dynamic(threads, n, kAssignGrain,
                         [&](std::size_t, std::size_t, std::size_t b, std::size_t e) {
                           for (std::size_t p = b; p < e; ++p) {
                             const float* px = points.row(p).data();
                             x2[p] = kernels::ddot(px, px, d);
                           }
                         });
  }
  std::vector<double> c2(cached ? k : 0);
  std::vector<double> lower;     // Hamerly l(p): lower bound on the runner-up distance
  std::vector<double> half_gap;  // s(c): half distance to the nearest other centroid
  std::vector<double> drift;
  MatrixD previous;  // centroids before the update step (drift accounting)
  if (hamerly) {
    lower.assign(n, 0.0);
    half_gap.assign(k, 0.0);
    drift.assign(k, 0.0);
  }

  const std::size_t chunks = chunk_count(n, kAssignGrain);
  std::vector<double> chunk_sse(chunks);
  std::vector<std::uint64_t> chunk_evals(chunks);
  std::vector<std::uint64_t> chunk_pruned(chunks);
  std::vector<std::vector<std::uint32_t>> scan_scratch(threads);
  for (auto& s : scan_scratch) s.reserve(kAssignGrain);

  std::vector<std::size_t> counts(k);
  std::vector<std::size_t> offsets(k + 1);
  std::vector<std::size_t> cursor(k);
  std::vector<std::uint32_t> order(n);

  double prev_sse = std::numeric_limits<double>::max();

  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    const auto assign_start = std::chrono::steady_clock::now();
    double c2max = 0.0;
    if (cached) {
      for (std::size_t c = 0; c < k; ++c) {
        c2[c] = kernels::dot_dd(centroids.row(c).data(), centroids.row(c).data(), d);
        c2max = std::max(c2max, c2[c]);
      }
    }
    const bool bounds_live = hamerly && iter > 0;
    if (bounds_live) {
      // s(c): half the distance from c to its nearest sibling, deflated by
      // the slack so `u < s` keeps the oracle's strict ordering.
      std::fill(half_gap.begin(), half_gap.end(),
                std::numeric_limits<double>::infinity());
      for (std::size_t c = 0; c < k; ++c) {
        for (std::size_t o = c + 1; o < k; ++o) {
          const double dd = kernels::sqdist_dd(centroids.row(c).data(),
                                               centroids.row(o).data(), d);
          half_gap[c] = std::min(half_gap[c], dd);
          half_gap[o] = std::min(half_gap[o], dd);
        }
      }
      for (std::size_t c = 0; c < k; ++c) {
        half_gap[c] = 0.5 * std::sqrt(half_gap[c]) * (1.0 - kBoundSlack);
      }
    }

    std::fill(chunk_sse.begin(), chunk_sse.end(), 0.0);
    std::fill(chunk_evals.begin(), chunk_evals.end(), 0);
    std::fill(chunk_pruned.begin(), chunk_pruned.end(), 0);

    // Assignment step. Each chunk writes only its own slice of assign/
    // best_sq/lower and its own chunk_* slot, so scheduling never affects
    // the result.
    parallel_for_dynamic(
        threads, n, kAssignGrain,
        [&](std::size_t worker, std::size_t chunk, std::size_t b, std::size_t e) {
          double sse = 0.0;
          std::uint64_t evals = 0;
          std::uint64_t pruned = 0;
          if (mode == KMeansAssign::kNaive) {
            for (std::size_t p = b; p < e; ++p) {
              const ScanResult r = scan_exact(points, p, centroids);
              assign[p] = r.best_c;
              best_sq[p] = r.best_sq;
              evals += r.evals;
            }
          } else if (!bounds_live) {
            // kNormCached every iteration; kHamerly's bound-seeding first
            // iteration: blocked norm-cached scan of every point.
            std::uint32_t tile[kPointTile];
            std::uint32_t tc[kPointTile];
            double tsq[kPointTile];
            double tlb[kPointTile];
            for (std::size_t p = b; p < e; p += kPointTile) {
              const std::size_t tn = std::min(kPointTile, e - p);
              for (std::size_t t = 0; t < tn; ++t) {
                tile[t] = static_cast<std::uint32_t>(p + t);
              }
              scan_tile_nc(points, centroids, x2.data(), c2.data(), c2max, tile, tn,
                           tc, tsq, tlb, &evals);
              for (std::size_t t = 0; t < tn; ++t) {
                assign[p + t] = tc[t];
                best_sq[p + t] = tsq[t];
                if (hamerly) {
                  lower[p + t] =
                      std::sqrt(std::max(tlb[t], 0.0)) * (1.0 - kBoundSlack);
                }
              }
            }
          } else {
            // Hamerly: tighten u with one exact distance, prune on
            // u < max(l, s); survivors take the blocked scan.
            std::vector<std::uint32_t>& scans = scan_scratch[worker];
            scans.clear();
            for (std::size_t p = b; p < e; ++p) {
              const std::uint32_t ap = assign[p];
              const double bsq =
                  point_centroid_sqdist(points.row(p), centroids.row(ap));
              ++evals;
              best_sq[p] = bsq;
              const double u = std::sqrt(bsq) * (1.0 + kBoundSlack);
              if (u < std::max(lower[p], half_gap[ap])) {
                ++pruned;
                continue;
              }
              scans.push_back(static_cast<std::uint32_t>(p));
            }
            std::uint32_t tc[kPointTile];
            double tsq[kPointTile];
            double tlb[kPointTile];
            for (std::size_t i = 0; i < scans.size(); i += kPointTile) {
              const std::size_t tn = std::min(kPointTile, scans.size() - i);
              scan_tile_nc(points, centroids, x2.data(), c2.data(), c2max,
                           scans.data() + i, tn, tc, tsq, tlb, &evals);
              for (std::size_t t = 0; t < tn; ++t) {
                const std::uint32_t p = scans[i + t];
                assign[p] = tc[t];
                best_sq[p] = tsq[t];
                lower[p] = std::sqrt(std::max(tlb[t], 0.0)) * (1.0 - kBoundSlack);
              }
            }
          }
          // SSE always sums best_sq in point-index order, regardless of
          // which branch (or prune/scan split) produced the values — the
          // chunk sum is bit-identical across engines.
          for (std::size_t p = b; p < e; ++p) sse += best_sq[p];
          chunk_sse[chunk] = sse;
          chunk_evals[chunk] = evals;
          chunk_pruned[chunk] = pruned;
        });

    // Reduce in chunk order: identical bits for any thread count.
    double sse = 0.0;
    std::uint64_t iter_pruned = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      sse += chunk_sse[c];
      out.dist_evals += chunk_evals[c];
      iter_pruned += chunk_pruned[c];
    }
    out.pruned_points += iter_pruned;
    out.assign_points += n;
    out.pruned_by_iter.push_back(static_cast<double>(iter_pruned) /
                                 static_cast<double>(n));
    out.iterations = iter + 1;
    out.assign_seconds += seconds_since(assign_start);
    const auto update_start = std::chrono::steady_clock::now();

    // Update step: counting-sort posting lists, then per-cluster sums in
    // increasing point order — bit-identical to the serial interleaved
    // accumulation and independent of threads, grain, and engine.
    if (hamerly) previous = centroids;
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t p = 0; p < n; ++p) ++counts[assign[p]];
    offsets[0] = 0;
    for (std::size_t c = 0; c < k; ++c) offsets[c + 1] = offsets[c] + counts[c];
    std::copy(offsets.begin(), offsets.end() - 1, cursor.begin());
    for (std::size_t p = 0; p < n; ++p) {
      order[cursor[assign[p]]++] = static_cast<std::uint32_t>(p);
    }
    parallel_for_dynamic(
        threads, k, 1, [&](std::size_t, std::size_t, std::size_t b, std::size_t e) {
          for (std::size_t c = b; c < e; ++c) {
            double* crow = centroids.row(c).data();
            std::fill(crow, crow + d, 0.0);
            for (std::size_t i = offsets[c]; i < offsets[c + 1]; ++i) {
              kernels::add_fd(points.row(order[i]).data(), crow, d);
            }
            if (counts[c] != 0) {
              kernels::scale_d(crow, 1.0 / static_cast<double>(counts[c]), d);
            }
          }
        });

    // Empty clusters: re-seed with the point farthest from its (pre-
    // update) centroid, reusing the assignment step's exact distances
    // instead of an O(n·d) rescan. Chosen entries are knocked out so
    // several empty clusters pick distinct points.
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] != 0) continue;
      std::size_t far = 0;
      double far_d = -1.0;
      for (std::size_t p = 0; p < n; ++p) {
        if (best_sq[p] > far_d) {
          far_d = best_sq[p];
          far = p;
        }
      }
      for (std::size_t i = 0; i < d; ++i) centroids(c, i) = points(far, i);
      best_sq[far] = -1.0;
    }

    if (hamerly) {
      // Drift accounting: l(p) loses the largest drift among centroids the
      // point could switch to — the global max, or the runner-up when the
      // assigned centroid IS the max drifter (Hamerly's two-max trick). A
      // re-seeded centroid simply shows up as a huge drift.
      double max1 = 0.0;
      double max2 = 0.0;
      std::size_t arg_max = 0;
      for (std::size_t c = 0; c < k; ++c) {
        drift[c] = std::sqrt(kernels::sqdist_dd(previous.row(c).data(),
                                                centroids.row(c).data(), d)) *
                   (1.0 + kBoundSlack);
        if (drift[c] > max1) {
          max2 = max1;
          max1 = drift[c];
          arg_max = c;
        } else if (drift[c] > max2) {
          max2 = drift[c];
        }
      }
      for (std::size_t p = 0; p < n; ++p) {
        const double delta = assign[p] == arg_max ? max2 : max1;
        const double next = (lower[p] - delta) * (1.0 - kBoundSlack);
        lower[p] = next > 0.0 ? next : 0.0;
      }
    }
    out.update_seconds += seconds_since(update_start);

    out.sse = sse;
    if (prev_sse - sse <= config.tolerance * std::max(prev_sse, 1e-30)) break;
    prev_sse = sse;
  }
  out.centroids = std::move(centroids);
  return out;
}

}  // namespace

const char* assign_mode_name(KMeansAssign mode) noexcept {
  switch (mode) {
    case KMeansAssign::kNaive:
      return "naive";
    case KMeansAssign::kNormCached:
      return "norm_cached";
    case KMeansAssign::kHamerly:
      return "hamerly";
  }
  return "unknown";
}

KMeansResult kmeans(const MatrixF& points, const KMeansConfig& config) {
  const std::size_t n = points.rows();
  if (config.k == 0) throw std::invalid_argument("kmeans: k == 0");
  if (config.k > n) throw std::invalid_argument("kmeans: k > number of points");
  if (config.restarts == 0) throw std::invalid_argument("kmeans: restarts == 0");

  const obs::ScopedTimer span(config.metrics, "kmeans");
  const Rng root(config.seed);
  const std::size_t threads = std::max<std::size_t>(1, config.threads);
  // Work-splitting policy: restarts are embarrassingly parallel, so they
  // get the workers whenever there are enough of them; otherwise restarts
  // run sequentially and each Lloyd run parallelizes over points. Both
  // paths produce bit-identical results to threads == 1.
  const bool restart_parallel = config.restarts >= threads;

  // Iterations land in [1, max_iterations]; one bucket per iteration count
  // makes the histogram exact. The SSE series is the across-restart
  // trajectory (append order is nondeterministic when threads > 1).
  obs::Histogram* iteration_hist = nullptr;
  obs::Series* sse_series = nullptr;
  if (config.metrics != nullptr) {
    iteration_hist = &config.metrics->histogram(
        "kmeans.iterations_per_restart",
        {0.0, static_cast<double>(config.max_iterations) + 1.0,
         config.max_iterations + 1});
    sse_series = &config.metrics->series("kmeans.restart_sse");
  }

  auto run_restart = [&](std::size_t r, std::size_t lloyd_threads) {
    Rng rng = root.fork(r);
    MatrixD seeds = config.seeding == KMeansSeeding::kPlusPlus
                        ? seed_plus_plus(points, config.k, rng)
                        : seed_uniform(points, config.k, rng);
    LloydOutcome outcome = lloyd(points, std::move(seeds), config, lloyd_threads);
    if (iteration_hist != nullptr) {
      iteration_hist->record(static_cast<double>(outcome.iterations));
    }
    if (sse_series != nullptr) sse_series->append(outcome.sse);
    return outcome;
  };

  LloydOutcome best;
  bool have_best = false;
  std::uint64_t total_evals = 0;
  std::uint64_t total_pruned = 0;
  std::uint64_t total_points = 0;
  double assign_seconds = 0.0;
  double update_seconds = 0.0;

  if (restart_parallel) {
    std::vector<LloydOutcome> best_per_thread(threads);
    // One byte per worker, NOT std::vector<bool>: the bit-packed
    // specialization would make concurrent writes to distinct chunks race
    // on the shared underlying word (a real data race, caught by TSan).
    std::vector<std::uint8_t> has_result(threads, 0);
    std::vector<std::uint64_t> evals_pc(threads, 0);
    std::vector<std::uint64_t> pruned_pc(threads, 0);
    std::vector<std::uint64_t> points_pc(threads, 0);
    std::vector<double> asec_pc(threads, 0.0);
    std::vector<double> usec_pc(threads, 0.0);
    parallel_for_once(threads, config.restarts,
                      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                        for (std::size_t r = begin; r < end; ++r) {
                          LloydOutcome outcome = run_restart(r, 1);
                          evals_pc[chunk] += outcome.dist_evals;
                          pruned_pc[chunk] += outcome.pruned_points;
                          points_pc[chunk] += outcome.assign_points;
                          asec_pc[chunk] += outcome.assign_seconds;
                          usec_pc[chunk] += outcome.update_seconds;
                          if (has_result[chunk] == 0 ||
                              outcome.sse < best_per_thread[chunk].sse) {
                            best_per_thread[chunk] = std::move(outcome);
                            has_result[chunk] = 1;
                          }
                        }
                      });
    std::size_t winner = 0;
    for (std::size_t t = 0; t < threads; ++t) {
      total_evals += evals_pc[t];
      total_pruned += pruned_pc[t];
      total_points += points_pc[t];
      assign_seconds += asec_pc[t];
      update_seconds += usec_pc[t];
      if (t == 0 || has_result[t] == 0) continue;
      if (has_result[winner] == 0 ||
          best_per_thread[t].sse < best_per_thread[winner].sse) {
        winner = t;
      }
    }
    if (has_result[winner] != 0) {
      best = std::move(best_per_thread[winner]);
      have_best = true;
    }
  } else {
    for (std::size_t r = 0; r < config.restarts; ++r) {
      LloydOutcome outcome = run_restart(r, threads);
      total_evals += outcome.dist_evals;
      total_pruned += outcome.pruned_points;
      total_points += outcome.assign_points;
      assign_seconds += outcome.assign_seconds;
      update_seconds += outcome.update_seconds;
      if (!have_best || outcome.sse < best.sse) {
        best = std::move(outcome);
        have_best = true;
      }
    }
  }
  V2V_CHECK(have_best, "kmeans: no restart produced a result");

  KMeansResult result;
  result.assignment = std::move(best.assignment);
  result.centroids = std::move(best.centroids);
  result.sse = best.sse;
  result.iterations = best.iterations;
  result.restarts_run = config.restarts;
  if (config.metrics != nullptr) {
    auto& m = *config.metrics;
    m.counter("kmeans.restarts").add(config.restarts);
    m.counter("kmeans.dist_evals").add(total_evals);
    m.gauge("kmeans.best_sse").set(result.sse);
    m.gauge("kmeans.seconds").set(span.seconds());
    m.gauge("kmeans.assign_seconds").set(assign_seconds);
    m.gauge("kmeans.update_seconds").set(update_seconds);
    m.gauge("kmeans.threads").set(static_cast<double>(threads));
    m.gauge("kmeans.points_parallel").set(restart_parallel ? 0.0 : 1.0);
    m.gauge("kmeans.assign_mode").set(static_cast<double>(config.assign));
    m.gauge("kmeans.pruned_fraction_overall")
        .set(total_points != 0
                 ? static_cast<double>(total_pruned) / static_cast<double>(total_points)
                 : 0.0);
    // Per-iteration pruning trajectory of the winning restart, appended
    // after the parallel section so the series is deterministic.
    auto& frac = m.series("kmeans.pruned_fraction");
    for (const double f : best.pruned_by_iter) frac.append(f);
  }
  return result;
}

std::vector<std::uint32_t> assign_to_centroids(const MatrixF& points,
                                               const MatrixD& centroids,
                                               std::size_t threads,
                                               KMeansAssign assign) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  const std::size_t k = centroids.rows();
  if (k == 0) throw std::invalid_argument("assign_to_centroids: no centroids");
  V2V_CHECK(centroids.cols() == d, "assign_to_centroids: dimension mismatch");
  const std::size_t workers = std::max<std::size_t>(1, threads);
  std::vector<std::uint32_t> result(n, 0);
  if (n == 0) return result;
  if (assign == KMeansAssign::kNaive) {
    parallel_for_dynamic(workers, n, kAssignGrain,
                         [&](std::size_t, std::size_t, std::size_t b, std::size_t e) {
                           for (std::size_t p = b; p < e; ++p) {
                             result[p] = scan_exact(points, p, centroids).best_c;
                           }
                         });
    return result;
  }
  std::vector<double> x2(n);
  parallel_for_dynamic(workers, n, kAssignGrain,
                       [&](std::size_t, std::size_t, std::size_t b, std::size_t e) {
                         for (std::size_t p = b; p < e; ++p) {
                           const float* px = points.row(p).data();
                           x2[p] = kernels::ddot(px, px, d);
                         }
                       });
  std::vector<double> c2(k);
  double c2max = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    c2[c] = kernels::dot_dd(centroids.row(c).data(), centroids.row(c).data(), d);
    c2max = std::max(c2max, c2[c]);
  }
  parallel_for_dynamic(
      workers, n, kAssignGrain,
      [&](std::size_t, std::size_t, std::size_t b, std::size_t e) {
        std::uint32_t tile[kPointTile];
        std::uint32_t tc[kPointTile];
        double tsq[kPointTile];
        double tlb[kPointTile];
        std::uint64_t evals = 0;
        for (std::size_t p = b; p < e; p += kPointTile) {
          const std::size_t tn = std::min(kPointTile, e - p);
          for (std::size_t t = 0; t < tn; ++t) {
            tile[t] = static_cast<std::uint32_t>(p + t);
          }
          scan_tile_nc(points, centroids, x2.data(), c2.data(), c2max, tile, tn, tc,
                       tsq, tlb, &evals);
          for (std::size_t t = 0; t < tn; ++t) result[p + t] = tc[t];
        }
      });
  return result;
}

double kmeans_sse(const MatrixF& points, const std::vector<std::uint32_t>& assignment,
                  const MatrixD& centroids) {
  V2V_CHECK(assignment.size() == points.rows(),
            "kmeans_sse: assignment size != point count");
  double sse = 0.0;
  for (std::size_t p = 0; p < points.rows(); ++p) {
    V2V_BOUNDS(assignment[p], centroids.rows());
    sse += point_centroid_sqdist(points.row(p), centroids.row(assignment[p]));
  }
  return sse;
}

}  // namespace v2v::ml
