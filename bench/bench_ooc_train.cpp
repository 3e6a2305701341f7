// Out-of-core training gate: identical fixed-seed training served from a
// RAM-resident corpus vs the streamed corpus (walk/corpus_stream.hpp).
//
// Two tracks walk the same ring graph with the same seed. Track A holds
// the corpus in RAM and trains from it; track B builds a StreamedCorpus
// (one counting pass) and trains from walks redrawn on demand every
// epoch. Because the stream replays the RAM corpus's walks in order, the
// per-epoch loss trajectories must be bit-equal — the bench asserts that,
// and gates streamed throughput, counting pass included, at >= 50% of
// the in-RAM training words/sec (committed baseline:
// bench/baselines/BENCH_ooc_train.json).
//
// Env V2V_OOC_STREAM_ONLY=1 skips the RAM track entirely. The release
// lane uses it under `ulimit -d` with a heap cap smaller than the corpus
// bytes: the run can only succeed if training never materializes the
// corpus (a heap allocation of corpus size would abort). With no RAM run
// to compare against, the sidecar then carries no loss_parity,
// throughput_ratio or ram_words_per_sec gauge, and the exit status only
// requires finite streamed losses.
//
// Knobs: --vertices --walks --walk-length --dims --epochs --window
// --seed. Env V2V_BENCH_OUT overrides the baseline output directory
// (default ./bench_out).
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "v2v/common/timer.hpp"
#include "v2v/embed/trainer.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/walk/corpus_stream.hpp"
#include "v2v/walk/walker.hpp"

namespace v2v::bench {
namespace {

std::filesystem::path bench_out_dir() {
  const char* env = std::getenv("V2V_BENCH_OUT");
  return (env != nullptr && *env != '\0') ? std::filesystem::path(env)
                                          : std::filesystem::path("bench_out");
}

struct BenchParams {
  std::size_t vertices = 3000;
  std::size_t walks = 10;
  std::size_t walk_length = 80;
  std::size_t dims = 32;
  std::size_t epochs = 2;
  std::size_t window = 5;
  std::uint64_t seed = 17;

  static BenchParams from_args(const CliArgs& args) {
    BenchParams p;
    p.vertices = static_cast<std::size_t>(args.get_int("vertices", 3000));
    p.walks = static_cast<std::size_t>(args.get_int("walks", 10));
    p.walk_length = static_cast<std::size_t>(args.get_int("walk-length", 80));
    p.dims = static_cast<std::size_t>(args.get_int("dims", 32));
    p.epochs = static_cast<std::size_t>(args.get_int("epochs", 2));
    p.window = static_cast<std::size_t>(args.get_int("window", 5));
    p.seed = static_cast<std::uint64_t>(args.get_int("seed", 17));
    return p;
  }
};

struct TrackResult {
  double walk_seconds = 0.0;
  double train_seconds = 0.0;
  double words_per_sec = 0.0;
  embed::TrainStats stats;
};

double words_per_sec(std::size_t tokens, std::size_t epochs, double seconds) {
  const double words = static_cast<double>(tokens) * static_cast<double>(epochs);
  return seconds > 0.0 ? words / seconds : 0.0;
}

}  // namespace
}  // namespace v2v::bench

int main(int argc, char** argv) {
  using namespace v2v;
  using namespace v2v::bench;
  const CliArgs args(argc, argv);
  const BenchParams p = BenchParams::from_args(args);
  const char* only_env = std::getenv("V2V_OOC_STREAM_ONLY");
  const bool stream_only =
      only_env != nullptr && *only_env != '\0' && *only_env != '0';

  const auto out_dir = bench_out_dir();
  std::filesystem::create_directories(out_dir);

  const graph::Graph g = graph::make_ring(p.vertices);
  walk::WalkConfig walk_config;
  walk_config.walks_per_vertex = p.walks;
  walk_config.walk_length = p.walk_length;

  embed::TrainConfig train_config;
  train_config.dimensions = p.dims;
  train_config.window = p.window;
  train_config.epochs = p.epochs;
  train_config.min_epochs = p.epochs;  // no early stop: timing determinism
  train_config.convergence_tol = 0.0;
  train_config.seed = p.seed;
  train_config.threads = 1;  // loss-parity gate requires one Hogwild worker

  const std::size_t corpus_tokens = p.vertices * p.walks * p.walk_length;
  std::printf("== out-of-core training vs RAM-resident ==\n");
  std::printf(
      "ring %zu vertices, %zu walks x %zu steps (%zu tokens, %.1f MiB); "
      "dims %zu, %zu epochs%s\n",
      p.vertices, p.walks, p.walk_length, corpus_tokens,
      static_cast<double>(corpus_tokens * sizeof(graph::VertexId)) /
          (1024.0 * 1024.0),
      p.dims, p.epochs, stream_only ? " [stream-only]" : "");

  // Track B: count once, then redraw the walks every epoch.
  WallTimer count_timer;
  const walk::StreamedCorpus stream(g, walk_config, p.seed);
  TrackResult stream_track;
  stream_track.walk_seconds = count_timer.seconds();
  {
    WallTimer timer;
    auto result = embed::train_embedding(stream, g.vertex_count(), train_config);
    stream_track.train_seconds = timer.seconds();
    stream_track.stats = std::move(result.stats);
  }
  stream_track.words_per_sec =
      words_per_sec(stream.token_count(), p.epochs,
                    stream_track.walk_seconds + stream_track.train_seconds);

  // Track A: the RAM-resident path (skipped under V2V_OOC_STREAM_ONLY so
  // the constrained lane never allocates the corpus).
  TrackResult ram_track;
  bool loss_parity = true;
  if (!stream_only) {
    WallTimer walk_timer;
    const walk::Corpus ram = walk::generate_corpus(g, walk_config, p.seed);
    ram_track.walk_seconds = walk_timer.seconds();
    WallTimer timer;
    auto result = embed::train_embedding(ram, g.vertex_count(), train_config);
    ram_track.train_seconds = timer.seconds();
    ram_track.stats = std::move(result.stats);
    ram_track.words_per_sec =
        words_per_sec(ram.token_count(), p.epochs, ram_track.train_seconds);

    loss_parity =
        ram_track.stats.epoch_loss == stream_track.stats.epoch_loss &&
        ram_track.stats.examples == stream_track.stats.examples;
  }
  for (const double loss : stream_track.stats.epoch_loss) {
    if (!std::isfinite(loss)) loss_parity = false;
  }

  const double ratio = ram_track.words_per_sec > 0.0
                           ? stream_track.words_per_sec / ram_track.words_per_sec
                           : 1.0;

  Table table({"track", "walk_s", "train_s", "words/s"});
  if (!stream_only) {
    table.add_row({"ram", fmt(ram_track.walk_seconds),
                   fmt(ram_track.train_seconds),
                   fmt(ram_track.words_per_sec, 0)});
  }
  table.add_row({"stream", fmt(stream_track.walk_seconds),
                 fmt(stream_track.train_seconds),
                 fmt(stream_track.words_per_sec, 0)});
  table.print(std::cout);

  obs::MetricsRegistry baseline;
  baseline.gauge("ooc_bench.corpus_tokens")
      .set(static_cast<double>(stream.token_count()));
  baseline.gauge("ooc_bench.stream_words_per_sec")
      .set(stream_track.words_per_sec);
  if (!stream_only) {
    // Comparisons with the RAM track; a stream-only run has none to make.
    baseline.gauge("ooc_bench.ram_words_per_sec").set(ram_track.words_per_sec);
    baseline.gauge("ooc_bench.throughput_ratio").set(ratio);
    baseline.gauge("ooc_bench.loss_parity").set(loss_parity ? 1.0 : 0.0);
  }
  baseline.gauge("ooc_bench.stream_only").set(stream_only ? 1.0 : 0.0);
  baseline.gauge("process.peak_rss_bytes")
      .set(static_cast<double>(obs::peak_rss_bytes()));

  const auto path = (out_dir / "BENCH_ooc_train.json").string();
  obs::write_json_file(baseline, path);

  if (stream_only) {
    std::printf("\nstream-only: %.0f words/s, losses finite: %s -> %s\n",
                stream_track.words_per_sec, loss_parity ? "yes" : "no",
                path.c_str());
    return loss_parity ? 0 : 1;
  }
  std::printf(
      "\nbaseline: throughput ratio %.3f (gate >= 0.5), loss parity %s "
      "(gate: bit-equal) -> %s\n",
      ratio, loss_parity ? "yes" : "no", path.c_str());
  return (ratio >= 0.5 && loss_parity) ? 0 : 1;
}
