// Per-kernel variant-versus-scalar micro-benchmarks for the SIMD kernel
// layer (common/kernels.hpp): the measurement every variant body has to
// justify itself with.
//
// The google-benchmark suite registers BM_Kernel/<kernel>/<variant>/<n>
// for every KernelSet member over every variant compiled_variants() lists.
// n is the row width d in {32, 64, 128}; for pq_adc it is the subspace
// count m in {8, 16}, for pq_lut the subspace width d_s = 4 (the served
// IVF-PQ shape: 64 dims in 16 subspaces).
//
// main() then writes $V2V_BENCH_OUT/BENCH_micro_kernels.json (default
// bench_out/, schema v2v.metrics.v1) with one gauge
// kernels.sse2_speedup.<kernel> per member that has its own SSE2 body
// (its SSE2 function pointer differs from the scalar one): the geometric
// mean over the shapes of scalar time / SSE2 time, each time the best of
// 5 interleaved rounds. A body that stops clearing 1.2x should go back to
// the reference; CI's release lane asserts every gauge >= 1.2. Pass
// --benchmark_filter with no match to skip the suite and only refresh the
// JSON.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "v2v/common/aligned.hpp"
#include "v2v/common/kernels.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/common/timer.hpp"
#include "v2v/obs/export.hpp"
#include "v2v/obs/metrics.hpp"

namespace {

using namespace v2v;
using kernels::KernelSet;

constexpr std::size_t kMaxWidth = 128;
constexpr std::size_t kMaxSubspaces = 16;
constexpr std::size_t kSubspaceWidth = 4;

/// Operands for every member at up to kMaxWidth elements, each starting on
/// a cache line like a MatrixF row. The in-place kernels (axpy, scale,
/// add, fill, add_fd, scale_d) write y / dy with factors that keep them
/// finite and normal over any number of calls.
struct Operands {
  AlignedVector<float> a, b, y, vmin, scale, lut, book, table;
  AlignedVector<double> da, db, dy;
  AlignedVector<std::uint8_t> codes;

  Operands()
      : a(kMaxWidth), b(kMaxWidth), y(kMaxWidth), vmin(kMaxWidth),
        scale(kMaxWidth), lut(kMaxSubspaces * kernels::kPqLutStride),
        book(kSubspaceWidth * kernels::kPqLutStride), table(kernels::kPqLutStride),
        da(kMaxWidth), db(kMaxWidth), dy(kMaxWidth), codes(kMaxWidth) {
    Rng rng(7);
    const auto gauss = [&rng] { return static_cast<float>(rng.next_gaussian()); };
    for (auto* v : {&a, &b, &y, &vmin, &lut, &book}) {
      for (float& x : *v) x = gauss();
    }
    for (float& x : scale) x = 0.01f * (1.0f + static_cast<float>(rng.next_double()));
    for (auto* v : {&da, &db, &dy}) {
      for (double& x : *v) x = rng.next_gaussian();
    }
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.next_below(256));
  }
};

struct Member {
  const char* name;
  std::vector<std::size_t> shapes;
  /// True when `variant` has its own body for this member, i.e. its
  /// function pointer differs from `reference`'s.
  bool (*own_body)(const KernelSet& variant, const KernelSet& reference);
  /// One call of this member of `set` at shape n.
  void (*call)(const KernelSet& set, Operands& x, std::size_t n);
};

template <auto Field>
bool differs(const KernelSet& variant, const KernelSet& reference) {
  return variant.*Field != reference.*Field;
}

const std::vector<Member>& members() {
  static const std::vector<std::size_t> widths{32, 64, 128};
  static const std::vector<Member> table{
      {"dot", widths, &differs<&KernelSet::dot>,
       [](const KernelSet& k, Operands& x, std::size_t n) {
         benchmark::DoNotOptimize(k.dot(x.a.data(), x.b.data(), n));
       }},
      {"axpy", widths, &differs<&KernelSet::axpy>,
       [](const KernelSet& k, Operands& x, std::size_t n) {
         k.axpy(1e-7f, x.a.data(), x.y.data(), n);
         benchmark::DoNotOptimize(x.y.data());
       }},
      {"scale", widths, &differs<&KernelSet::scale>,
       [](const KernelSet& k, Operands& x, std::size_t n) {
         k.scale(x.y.data(), 1.0f, n);
         benchmark::DoNotOptimize(x.y.data());
       }},
      {"add", widths, &differs<&KernelSet::add>,
       [](const KernelSet& k, Operands& x, std::size_t n) {
         k.add(x.a.data(), x.y.data(), n);
         benchmark::DoNotOptimize(x.y.data());
       }},
      {"fill", widths, &differs<&KernelSet::fill>,
       [](const KernelSet& k, Operands& x, std::size_t n) {
         k.fill(x.y.data(), 0.5f, n);
         benchmark::DoNotOptimize(x.y.data());
       }},
      {"ddot", widths, &differs<&KernelSet::ddot>,
       [](const KernelSet& k, Operands& x, std::size_t n) {
         benchmark::DoNotOptimize(k.ddot(x.a.data(), x.b.data(), n));
       }},
      {"sqdist", widths, &differs<&KernelSet::sqdist>,
       [](const KernelSet& k, Operands& x, std::size_t n) {
         benchmark::DoNotOptimize(k.sqdist(x.a.data(), x.b.data(), n));
       }},
      {"sqdist_fd", widths, &differs<&KernelSet::sqdist_fd>,
       [](const KernelSet& k, Operands& x, std::size_t n) {
         benchmark::DoNotOptimize(k.sqdist_fd(x.a.data(), x.db.data(), n));
       }},
      {"add_fd", widths, &differs<&KernelSet::add_fd>,
       [](const KernelSet& k, Operands& x, std::size_t n) {
         k.add_fd(x.a.data(), x.dy.data(), n);
         benchmark::DoNotOptimize(x.dy.data());
       }},
      {"scale_d", widths, &differs<&KernelSet::scale_d>,
       [](const KernelSet& k, Operands& x, std::size_t n) {
         k.scale_d(x.dy.data(), 1.0, n);
         benchmark::DoNotOptimize(x.dy.data());
       }},
      {"dot_fd", widths, &differs<&KernelSet::dot_fd>,
       [](const KernelSet& k, Operands& x, std::size_t n) {
         benchmark::DoNotOptimize(k.dot_fd(x.a.data(), x.db.data(), n));
       }},
      {"dot_dd", widths, &differs<&KernelSet::dot_dd>,
       [](const KernelSet& k, Operands& x, std::size_t n) {
         benchmark::DoNotOptimize(k.dot_dd(x.da.data(), x.db.data(), n));
       }},
      {"sqdist_dd", widths, &differs<&KernelSet::sqdist_dd>,
       [](const KernelSet& k, Operands& x, std::size_t n) {
         benchmark::DoNotOptimize(k.sqdist_dd(x.da.data(), x.db.data(), n));
       }},
      {"pq_adc", {8, kMaxSubspaces}, &differs<&KernelSet::pq_adc>,
       [](const KernelSet& k, Operands& x, std::size_t m) {
         benchmark::DoNotOptimize(k.pq_adc(x.lut.data(), x.codes.data(), m));
       }},
      {"pq_lut", {kSubspaceWidth}, &differs<&KernelSet::pq_lut>,
       [](const KernelSet& k, Operands& x, std::size_t d) {
         k.pq_lut(x.a.data(), x.book.data(), d, x.table.data());
         benchmark::DoNotOptimize(x.table.data());
       }},
      {"sq8_sqdist", widths, &differs<&KernelSet::sq8_sqdist>,
       [](const KernelSet& k, Operands& x, std::size_t n) {
         benchmark::DoNotOptimize(k.sq8_sqdist(x.a.data(), x.codes.data(),
                                               x.vmin.data(), x.scale.data(), n));
       }},
      {"sq8_dot", widths, &differs<&KernelSet::sq8_dot>,
       [](const KernelSet& k, Operands& x, std::size_t n) {
         benchmark::DoNotOptimize(k.sq8_dot(x.a.data(), x.codes.data(),
                                            x.vmin.data(), x.scale.data(), n));
       }},
  };
  return table;
}

void register_suite() {
  for (const Member& member : members()) {
    for (const auto& [isa, set] : kernels::compiled_variants()) {
      for (const std::size_t n : member.shapes) {
        const std::string name = std::string("BM_Kernel/") + member.name + "/" +
                                 kernels::isa_name(isa) + "/" + std::to_string(n);
        benchmark::RegisterBenchmark(
            name.c_str(), [&member, set = set, n](benchmark::State& state) {
              Operands x;
              for (auto _ : state) {
                member.call(set, x, n);
                benchmark::ClobberMemory();
              }
              state.SetItemsProcessed(state.iterations() *
                                      static_cast<std::int64_t>(n));
            });
      }
    }
  }
}

/// Seconds for `calls` back-to-back calls of `member` through `set`.
double time_calls(const Member& member, const KernelSet& set, Operands& x,
                  std::size_t n, std::size_t calls) {
  const WallTimer timer;
  for (std::size_t i = 0; i < calls; ++i) {
    member.call(set, x, n);
    benchmark::ClobberMemory();
  }
  return timer.seconds();
}

/// Scalar time / SSE2 time at shape n, each the best of 5 rounds of the
/// same call count (enough for ~5 ms of scalar work); the two variants
/// alternate round by round so clock drift hits both alike.
double speedup_at(const Member& member, const KernelSet& scalar,
                  const KernelSet& sse2, std::size_t n) {
  Operands x;
  std::size_t calls = 1024;
  while (time_calls(member, scalar, x, n, calls) < 5e-3 && calls < (1u << 26)) {
    calls *= 2;
  }
  double best_scalar = std::numeric_limits<double>::infinity();
  double best_sse2 = best_scalar;
  for (int round = 0; round < 5; ++round) {
    best_scalar = std::min(best_scalar, time_calls(member, scalar, x, n, calls));
    best_sse2 = std::min(best_sse2, time_calls(member, sse2, x, n, calls));
  }
  return best_scalar / best_sse2;
}

/// Directory for JSON baselines: $V2V_BENCH_OUT, default "bench_out".
std::filesystem::path bench_out_dir() {
  const char* env = std::getenv("V2V_BENCH_OUT");
  return (env != nullptr && *env != '\0') ? std::filesystem::path(env)
                                          : std::filesystem::path("bench_out");
}

void write_speedup_baseline() {
  const auto variants = kernels::compiled_variants();
  const KernelSet& scalar = variants.front().second;
  obs::MetricsRegistry baseline;
  baseline.counter(std::string("isa.") + kernels::active_isa_name()).add(1);
  for (const auto& [isa, sse2] : variants) {
    if (isa != kernels::Isa::kSse2) continue;
    for (const Member& member : members()) {
      if (!member.own_body(sse2, scalar)) continue;
      double log_sum = 0.0;
      for (const std::size_t n : member.shapes) {
        const double ratio = speedup_at(member, scalar, sse2, n);
        std::printf("sse2 %-10s n=%-3zu %.2fx\n", member.name, n, ratio);
        log_sum += std::log(ratio);
      }
      const double geomean =
          std::exp(log_sum / static_cast<double>(member.shapes.size()));
      baseline.gauge(std::string("kernels.sse2_speedup.") + member.name).set(geomean);
      std::printf("sse2 %-10s geometric mean %.2fx\n", member.name, geomean);
    }
  }
  const auto dir = bench_out_dir();
  std::filesystem::create_directories(dir);
  const auto path = (dir / "BENCH_micro_kernels.json").string();
  obs::write_json_file(baseline, path);
  std::printf("baseline -> %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  register_suite();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_speedup_baseline();
  return 0;
}
