// Ablation micro-benchmarks for the embedding trainer (DESIGN.md §5):
// CBOW vs SkipGram, negative sampling vs hierarchical softmax, dimension
// scaling, and thread scaling at the shape of the end-to-end
// embed_planted workload. Reported as tokens/second of SGD throughput.
//
// Besides the interactive google-benchmark suite, main() records a
// calibrated headline run (dims=128, negative sampling, 8 threads) into
// $V2V_BENCH_OUT/BENCH_micro_train.json (schema v2v.metrics.v1) so
// successive runs — and ISA variants via V2V_FORCE_SCALAR — can be diffed
// with the obs tooling. The same file carries train.speedup_4t_vs_1t
// (4-thread over 1-thread words/sec on the embed_planted shape, best of 5
// interleaved runs each) and train.hw_threads, which CI gates on. Pass
// --benchmark_filter with no match to skip the suite and only refresh
// the baseline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "micro_bench_main.hpp"
#include "v2v/common/kernels.hpp"
#include "v2v/embed/trainer.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/obs/export.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/walk/corpus_stream.hpp"
#include "v2v/walk/walker.hpp"

namespace {

using namespace v2v;

const walk::Corpus& shared_corpus(std::size_t* vocab) {
  static std::size_t vocab_size = 0;
  static const walk::Corpus corpus = [] {
    graph::PlantedPartitionParams params;
    params.groups = 10;
    params.group_size = 30;
    params.alpha = 0.5;
    params.inter_edges = 60;
    Rng rng(1);
    const auto planted = graph::make_planted_partition(params, rng);
    vocab_size = planted.graph.vertex_count();
    walk::WalkConfig config;
    config.walks_per_vertex = 5;
    config.walk_length = 30;
    return walk::generate_corpus(planted.graph, config, 2);
  }();
  *vocab = vocab_size;
  return corpus;
}

embed::TrainConfig base_config(std::size_t dims) {
  embed::TrainConfig config;
  config.dimensions = dims;
  config.epochs = 1;
  config.seed = 3;
  return config;
}

void run_training(benchmark::State& state, embed::TrainConfig config) {
  std::size_t vocab = 0;
  const auto& corpus = shared_corpus(&vocab);
  for (auto _ : state) {
    const auto result = embed::train_embedding(corpus, vocab, config);
    benchmark::DoNotOptimize(result.embedding.matrix().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(corpus.token_count()));
}

void BM_TrainCbowNegative(benchmark::State& state) {
  run_training(state, base_config(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_TrainCbowNegative)->Arg(10)->Arg(50)->Arg(100)->Arg(300);

void BM_TrainSkipGramNegative(benchmark::State& state) {
  auto config = base_config(static_cast<std::size_t>(state.range(0)));
  config.architecture = embed::Architecture::kSkipGram;
  config.initial_lr = 0.025;
  run_training(state, config);
}
BENCHMARK(BM_TrainSkipGramNegative)->Arg(10)->Arg(100);

void BM_TrainCbowHierarchical(benchmark::State& state) {
  auto config = base_config(static_cast<std::size_t>(state.range(0)));
  config.objective = embed::Objective::kHierarchicalSoftmax;
  run_training(state, config);
}
BENCHMARK(BM_TrainCbowHierarchical)->Arg(10)->Arg(100);

void BM_TrainNegativeCount(benchmark::State& state) {
  auto config = base_config(50);
  config.negative = static_cast<std::size_t>(state.range(0));
  run_training(state, config);
}
BENCHMARK(BM_TrainNegativeCount)->Arg(2)->Arg(5)->Arg(15);

void BM_TrainWindowSize(benchmark::State& state) {
  auto config = base_config(50);
  config.window = static_cast<std::size_t>(state.range(0));
  run_training(state, config);
}
BENCHMARK(BM_TrainWindowSize)->Arg(2)->Arg(5)->Arg(10);

// The StreamedCorpus of BM_TrainCbowNegative's corpus, counting pass
// included: what training costs when the walks are redrawn each epoch
// instead of held in RAM.
void BM_TrainStreaming(benchmark::State& state) {
  static const auto planted = [] {
    graph::PlantedPartitionParams params;
    params.groups = 10;
    params.group_size = 30;
    params.alpha = 0.5;
    params.inter_edges = 60;
    Rng rng(1);
    return graph::make_planted_partition(params, rng);
  }();
  walk::WalkConfig walks;
  walks.walks_per_vertex = 5;
  walks.walk_length = 30;
  auto config = base_config(static_cast<std::size_t>(state.range(0)));
  std::size_t tokens = 0;
  for (auto _ : state) {
    const walk::StreamedCorpus corpus(planted.graph, walks, 2);
    const auto result =
        embed::train_embedding(corpus, planted.graph.vertex_count(), config);
    benchmark::DoNotOptimize(result.embedding.matrix().data());
    tokens = corpus.token_count();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(tokens));
}
BENCHMARK(BM_TrainStreaming)->Arg(10)->Arg(100);

/// The corpus of one embed_planted operation: 10 planted groups of 100
/// vertices (200 inter-group edges), 10 walks of length 40 per vertex.
const walk::Corpus& planted_thousand_corpus(std::size_t* vocab) {
  static std::size_t vocab_size = 0;
  static const walk::Corpus corpus = [] {
    graph::PlantedPartitionParams params;
    params.alpha = 0.5;
    Rng rng(1);
    const auto planted = graph::make_planted_partition(params, rng);
    vocab_size = planted.graph.vertex_count();
    walk::WalkConfig config;
    config.walks_per_vertex = 10;
    config.walk_length = 40;
    return walk::generate_corpus(planted.graph, config, 2);
  }();
  *vocab = vocab_size;
  return corpus;
}

embed::TrainConfig planted_thousand_config(std::size_t threads) {
  auto config = base_config(32);
  config.threads = threads;
  return config;
}

// Hogwild thread scaling on a small (1,000-vertex) vocabulary, where
// workers contend for the same output rows.
void BM_TrainCbowThreads(benchmark::State& state) {
  std::size_t vocab = 0;
  const auto& corpus = planted_thousand_corpus(&vocab);
  const auto config = planted_thousand_config(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto result = embed::train_embedding(corpus, vocab, config);
    benchmark::DoNotOptimize(result.embedding.matrix().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(corpus.token_count()));
}
BENCHMARK(BM_TrainCbowThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// 4-thread over 1-thread words/sec on the embed_planted shape, each the
/// best of 5 runs, the two thread counts interleaved so that a slow spell
/// of a shared host hits both.
double thread_speedup_4_vs_1() {
  std::size_t vocab = 0;
  const auto& corpus = planted_thousand_corpus(&vocab);
  const auto words_per_sec = [&](std::size_t threads) {
    const auto result =
        embed::train_embedding(corpus, vocab, planted_thousand_config(threads));
    return static_cast<double>(corpus.token_count()) / result.stats.train_seconds;
  };
  double best_1t = 0.0, best_4t = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    best_1t = std::max(best_1t, words_per_sec(1));
    best_4t = std::max(best_4t, words_per_sec(4));
  }
  return best_4t / best_1t;
}

/// Directory for JSON baselines: $V2V_BENCH_OUT, default "bench_out".
std::filesystem::path bench_out_dir() {
  const char* env = std::getenv("V2V_BENCH_OUT");
  return (env != nullptr && *env != '\0') ? std::filesystem::path(env)
                                          : std::filesystem::path("bench_out");
}

/// The headline measurement from the kernel-layer work: best-of-5
/// words/second for dims=128, negative sampling, 8 worker threads.
void write_throughput_baseline() {
  std::size_t vocab = 0;
  const auto& corpus = shared_corpus(&vocab);
  auto config = base_config(128);
  config.epochs = 5;
  config.threads = 8;
  const double words =
      static_cast<double>(config.epochs * corpus.token_count());

  (void)embed::train_embedding(corpus, vocab, config);  // warmup
  double best_words_per_sec = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto result = embed::train_embedding(corpus, vocab, config);
    best_words_per_sec =
        std::max(best_words_per_sec, words / result.stats.train_seconds);
  }

  obs::MetricsRegistry baseline;
  baseline.gauge("train.words_per_sec").set(best_words_per_sec);
  baseline.gauge("train.threads").set(static_cast<double>(config.threads));
  baseline.gauge("train.dims").set(static_cast<double>(config.dimensions));
  baseline.gauge("train.epochs").set(static_cast<double>(config.epochs));
  baseline.counter(std::string("isa.") + kernels::active_isa_name()).add(1);
  const double speedup = thread_speedup_4_vs_1();
  const unsigned hw_threads = std::thread::hardware_concurrency();
  baseline.gauge("train.speedup_4t_vs_1t").set(speedup);
  baseline.gauge("train.hw_threads").set(static_cast<double>(hw_threads));

  const auto dir = bench_out_dir();
  std::filesystem::create_directories(dir);
  const auto path = (dir / "BENCH_micro_train.json").string();
  obs::write_json_file(baseline, path);
  std::printf("baseline: %.0f words/sec (isa=%s), 4t/1t speedup %.2f on %u hw threads"
              " -> %s\n",
              best_words_per_sec, kernels::active_isa_name(), speedup, hw_threads,
              path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  return v2v::bench::micro_bench_main(argc, argv, write_throughput_baseline);
}
