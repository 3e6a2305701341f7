// Ablation micro-benchmarks for the walk engine (DESIGN.md §5):
// alias-method vs linear-CDF weighted sampling, uniform vs biased walk
// throughput, temporal-walk overhead, and corpus generation.
//
// main() additionally records a calibrated corpus-generation run into
// $V2V_BENCH_OUT/BENCH_micro_walk.json (schema v2v.metrics.v1) so walk
// throughput can be diffed across runs alongside the trainer baseline.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "micro_bench_main.hpp"
#include "v2v/common/kernels.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/obs/export.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/walk/alias_table.hpp"
#include "v2v/walk/walker.hpp"

namespace {

using namespace v2v;

std::vector<double> make_weights(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng.next_double() + 0.01;
  return weights;
}

void BM_AliasSample(benchmark::State& state) {
  const auto weights = make_weights(static_cast<std::size_t>(state.range(0)), 1);
  const walk::AliasTable table{std::span<const double>(weights)};
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSample)->Arg(8)->Arg(64)->Arg(1024);

void BM_LinearCdfSample(benchmark::State& state) {
  // The O(deg) alternative the alias table replaces.
  const auto weights = make_weights(static_cast<std::size_t>(state.range(0)), 1);
  double total = 0.0;
  for (const double w : weights) total += w;
  Rng rng(2);
  for (auto _ : state) {
    const double target = rng.next_double() * total;
    double acc = 0.0;
    std::size_t pick = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      if (acc >= target) {
        pick = i;
        break;
      }
    }
    benchmark::DoNotOptimize(pick);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinearCdfSample)->Arg(8)->Arg(64)->Arg(1024);

graph::PlantedGraph bench_graph() {
  graph::PlantedPartitionParams params;
  params.groups = 10;
  params.group_size = 50;
  params.alpha = 0.5;
  params.inter_edges = 100;
  Rng rng(3);
  return graph::make_planted_partition(params, rng);
}

void BM_WalkUniform(benchmark::State& state) {
  const auto planted = bench_graph();
  walk::WalkConfig config;
  config.walk_length = 80;
  const walk::Walker walker(planted.graph, config);
  Rng rng(4);
  std::vector<graph::VertexId> buffer;
  for (auto _ : state) {
    walker.walk_from(static_cast<graph::VertexId>(rng.next_below(500)), rng, buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetItemsProcessed(state.iterations() * 80);
}
BENCHMARK(BM_WalkUniform);

void BM_WalkEdgeWeighted(benchmark::State& state) {
  // Same graph with random edge weights: alias-table steps.
  const auto planted = bench_graph();
  graph::GraphBuilder builder(false);
  Rng wrng(5);
  for (graph::VertexId u = 0; u < planted.graph.vertex_count(); ++u) {
    for (const auto v : planted.graph.neighbors(u)) {
      if (v > u) builder.add_edge(u, v, wrng.next_double() + 0.1);
    }
  }
  const auto g = builder.build();
  walk::WalkConfig config;
  config.walk_length = 80;
  config.bias = walk::StepBias::kEdgeWeight;
  const walk::Walker walker(g, config);
  Rng rng(6);
  std::vector<graph::VertexId> buffer;
  for (auto _ : state) {
    walker.walk_from(static_cast<graph::VertexId>(rng.next_below(500)), rng, buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetItemsProcessed(state.iterations() * 80);
}
BENCHMARK(BM_WalkEdgeWeighted);

void BM_WalkTemporal(benchmark::State& state) {
  Rng gen(7);
  const auto dag = graph::make_temporal_dag(500, 5000, gen);
  walk::WalkConfig config;
  config.walk_length = 80;
  config.temporal = true;
  const walk::Walker walker(dag, config);
  Rng rng(8);
  std::vector<graph::VertexId> buffer;
  for (auto _ : state) {
    walker.walk_from(static_cast<graph::VertexId>(rng.next_below(500)), rng, buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
}
BENCHMARK(BM_WalkTemporal);

void BM_CorpusGeneration(benchmark::State& state) {
  const auto planted = bench_graph();
  walk::WalkConfig config;
  config.walks_per_vertex = static_cast<std::size_t>(state.range(0));
  config.walk_length = 40;
  for (auto _ : state) {
    const auto corpus = walk::generate_corpus(planted.graph, config, 9);
    benchmark::DoNotOptimize(corpus.token_count());
  }
  state.SetItemsProcessed(state.iterations() * 500 * state.range(0) * 40);
}
BENCHMARK(BM_CorpusGeneration)->Arg(2)->Arg(10);

/// Directory for JSON baselines: $V2V_BENCH_OUT, default "bench_out".
std::filesystem::path bench_out_dir() {
  const char* env = std::getenv("V2V_BENCH_OUT");
  return (env != nullptr && *env != '\0') ? std::filesystem::path(env)
                                          : std::filesystem::path("bench_out");
}

/// Calibrated corpus-generation baseline: best-of-5 steps/second for
/// 10 walks x 40 steps from each of the 500 bench-graph vertices on the
/// dynamic work queue with 8 worker threads.
void write_throughput_baseline() {
  const auto planted = bench_graph();
  walk::WalkConfig config;
  config.walks_per_vertex = 10;
  config.walk_length = 40;
  config.threads = 8;

  (void)walk::generate_corpus(planted.graph, config, 9);  // warmup
  double best_steps_per_sec = 0.0;
  double best_walks_per_sec = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    obs::MetricsRegistry run;
    config.metrics = &run;
    (void)walk::generate_corpus(planted.graph, config, 9);
    config.metrics = nullptr;
    if (run.gauge("walk.steps_per_sec").value() > best_steps_per_sec) {
      best_steps_per_sec = run.gauge("walk.steps_per_sec").value();
      best_walks_per_sec = run.gauge("walk.walks_per_sec").value();
    }
  }

  obs::MetricsRegistry baseline;
  baseline.gauge("walk.steps_per_sec").set(best_steps_per_sec);
  baseline.gauge("walk.walks_per_sec").set(best_walks_per_sec);
  baseline.gauge("walk.threads").set(static_cast<double>(config.threads));
  baseline.gauge("walk.walks_per_vertex")
      .set(static_cast<double>(config.walks_per_vertex));
  baseline.gauge("walk.walk_length").set(static_cast<double>(config.walk_length));
  baseline.counter(std::string("isa.") + kernels::active_isa_name()).add(1);

  const auto dir = bench_out_dir();
  std::filesystem::create_directories(dir);
  const auto path = (dir / "BENCH_micro_walk.json").string();
  obs::write_json_file(baseline, path);
  std::printf("baseline: %.0f steps/sec (isa=%s) -> %s\n", best_steps_per_sec,
              kernels::active_isa_name(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  return v2v::bench::micro_bench_main(argc, argv, write_throughput_baseline);
}
