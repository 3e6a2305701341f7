// word2vec-style SGD trainer adapted to vertex sequences (paper §II-B).
//
// The paper uses CBOW with window n = 5; SkipGram is included because the
// DeepWalk baseline uses it and the ablation bench compares the two. Both
// objectives from word2vec are available: negative sampling (default,
// noise distribution ~ frequency^(3/4)) and hierarchical softmax (Huffman
// tree over visit frequencies).
//
// Training runs Hogwild-style: worker threads update the shared weight
// matrices without locks, which is the standard word2vec recipe. With one
// thread, training is fully deterministic for a fixed seed. On a small
// vocabulary (a 1,000-vertex graph) the workers keep writing the same few
// output rows, and each pair update would stall on a cache line another
// core just dirtied. Three things keep that cost off the critical path:
// each update's output rows are drawn one update ahead and prefetched for
// writing while the update before them runs; each worker drains its own
// contiguous range of the corpus before it steals (word2vec's per-thread
// file split), so workers train different communities at once; and the
// per-pair loss comes from the sigmoid table rather than std::log. None of
// them changes the random stream or any 1-thread result. The SGD loop is
// compiled once per instruction set over that ISA's kernels::RowOps and
// picked once per chunk, so its row operations are inlined, not
// dispatched per call, and give the dispatched kernels' bits.
//
// Training reads its sentences through the walk::CorpusReader interface:
// the RAM walk::Corpus, or the walk::StreamedCorpus that redraws the same
// walks on demand. One chunked epoch loop serves both: chunk c of epoch e
// makes one for_each_walk call over its walks and trains them through a
// trainer seeded from (seed, e, c), so a fixed (seed, grain) gives the
// same 1-thread bits on the RAM corpus and on its stream.
//
// Early stopping reproduces the paper's Fig 7 behaviour (training time
// decreases as community structure strengthens): when the relative
// improvement of the mean epoch loss drops below `convergence_tol`,
// training stops before `epochs`.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "v2v/embed/embedding.hpp"
#include "v2v/walk/corpus.hpp"
#include "v2v/walk/corpus_reader.hpp"

namespace v2v::obs {
class MetricsRegistry;
}  // namespace v2v::obs

namespace v2v::embed {

enum class Architecture : std::uint8_t { kCbow, kSkipGram };
enum class Objective : std::uint8_t { kNegativeSampling, kHierarchicalSoftmax };

struct TrainConfig {
  /// Embedding width d (dimensions; paper sweeps 20–1000, default 100).
  std::size_t dimensions = 100;
  /// Context window n: vertices considered on each side of the target
  /// (count; paper default n = 5).
  std::size_t window = 5;
  /// CBOW (paper §II-B default) or SkipGram (DeepWalk baseline).
  Architecture architecture = Architecture::kCbow;
  /// Negative sampling (word2vec default) or hierarchical softmax.
  Objective objective = Objective::kNegativeSampling;
  /// Negative samples drawn per positive target (count; word2vec
  /// default 5). Ignored under hierarchical softmax.
  std::size_t negative = 5;
  /// Maximum passes over the corpus (count; default 5).
  std::size_t epochs = 5;
  /// Passes guaranteed before early stopping may trigger (count).
  std::size_t min_epochs = 1;
  /// Stop when (prev_loss - loss) < convergence_tol * prev_loss
  /// (dimensionless relative improvement; 0 disables early stopping).
  double convergence_tol = 0.0;
  /// Starting SGD step size (dimensionless; word2vec CBOW default 0.05),
  /// decayed linearly over the planned token budget.
  double initial_lr = 0.05;
  /// Learning-rate floor as a fraction of initial_lr (dimensionless).
  double min_lr_fraction = 1e-4;
  /// Frequent-vertex subsampling threshold (corpus frequency fraction,
  /// word2vec "-sample"); 0 = keep every occurrence (default).
  double subsample = 0.0;
  /// Hogwild worker threads (count; 1 = deterministic for a fixed seed).
  std::size_t threads = 1;
  /// Sentences (walks) per dynamic work-queue chunk; 0 (default) picks
  /// default_grain(walk_count, threads). Chunk boundaries — and hence the
  /// per-chunk RNG streams — depend only on this value, so results for a
  /// fixed (seed, grain) are reproducible regardless of scheduling (exact
  /// with 1 thread; Hogwild-racy above).
  std::size_t grain = 0;
  /// Seed for init, sampling, and shuffling (64-bit; default 1).
  std::uint64_t seed = 1;
  /// Optional observability sink: training records words/sec per epoch,
  /// the learning-rate and loss trajectories, epoch wall-time histograms,
  /// and a "train" > "epoch" stage span tree into it. Null (default)
  /// disables instrumentation.
  obs::MetricsRegistry* metrics = nullptr;
  /// When set, TrainResult::checkpoint carries the optimizer state needed
  /// to continue SGD later (see TrainerCheckpoint). Off by default: the
  /// checkpoint owns a second vocab x dims matrix.
  bool capture_checkpoint = false;
};

/// Everything besides the embedding itself (syn0) that continued SGD
/// needs: the output layer, the frequency profile the objective was
/// built from, and learning-rate bookkeeping. Serialized by
/// store/trainer_state.hpp as optional snapshot-v3 sections; consumed by
/// train_embedding_resume() and the dynamic-refresh pipeline.
struct TrainerCheckpoint {
  MatrixF syn1;  ///< output vectors (HS inner nodes or NS per-vertex)
  /// Frequency profile the objective was initialized from. Under
  /// hierarchical softmax this is load-bearing: resuming rebuilds the
  /// *identical* Huffman tree from it (syn1 rows are tied to tree
  /// topology). Under negative sampling it is informational — resume
  /// recomputes the noise distribution from the new corpus.
  std::vector<std::uint64_t> frequencies;
  std::uint64_t tokens_processed = 0;  ///< cumulative across all runs
  std::uint64_t planned_tokens = 0;    ///< last run's schedule denominator
  double last_lr = 0.0;                ///< decayed lr at the end of the last run
  /// Echo of the producing TrainConfig, so a refresh tool can rebuild a
  /// compatible config from the snapshot alone.
  Architecture architecture = Architecture::kCbow;
  Objective objective = Objective::kNegativeSampling;
  std::uint64_t dimensions = 0;
  std::uint64_t window = 0;
  std::uint64_t negative = 0;
  double initial_lr = 0.0;
  double min_lr_fraction = 0.0;
  double subsample = 0.0;
  std::uint64_t seed = 0;  ///< trainer seed of the producing run
  /// Walk parameters of the corpus the embedding was trained on (filled
  /// by learn_embedding / the refresh driver, 0 = unknown). walk_seed is
  /// the seed generate_corpus ran with; every refresh round walks its
  /// graph at it, so a round's corpus is a function of the graph alone.
  std::uint64_t walks_per_vertex = 0;
  std::uint64_t walk_length = 0;
  std::uint64_t walk_seed = 0;
  std::uint64_t refresh_rounds = 0;  ///< continued-SGD refreshes so far
};

struct TrainStats {
  std::size_t epochs_run = 0;       ///< passes actually executed (count)
  std::vector<double> epoch_loss;   ///< mean loss per training example, one per epoch
  double train_seconds = 0.0;       ///< SGD wall time, excludes corpus generation (s)
  std::uint64_t examples = 0;       ///< total (context, target) updates (count)
  bool converged_early = false;     ///< true if the loss-plateau rule stopped training
};

struct TrainResult {
  Embedding embedding;
  TrainStats stats;
  /// Present iff TrainConfig::capture_checkpoint was set.
  std::optional<TrainerCheckpoint> checkpoint;
};

/// Trains vertex embeddings from a walk corpus: the RAM walk::Corpus or
/// its walk::StreamedCorpus. `vocab_size` must be at least
/// max(token)+1; vertices that never appear in the corpus keep their
/// small random initial vectors. Chunk geometry and RNG streams depend
/// only on (walk_count, seed, grain), so a fixed-seed run produces
/// bit-identical results whichever backing serves the walks (exact with 1
/// thread; Hogwild-racy above).
[[nodiscard]] TrainResult train_embedding(const walk::CorpusReader& corpus,
                                          std::size_t vocab_size,
                                          const TrainConfig& config);

/// Continues SGD from a previous run's embedding + checkpoint on a (new)
/// corpus — the warm-start path of the dynamic-refresh pipeline. The
/// vocabulary may grow (new vertices get fresh deterministic init rows
/// and, under negative sampling, zero output rows); under hierarchical
/// softmax growth throws (the Huffman tree shape is fixed by the stored
/// frequency profile). `config` must agree with the checkpoint on
/// dimensions/architecture/objective; its learning-rate fields define a
/// fresh linear decay over this run's token budget (callers typically
/// set initial_lr = checkpoint.last_lr to continue the decayed schedule).
/// The returned checkpoint (when captured) accumulates tokens_processed
/// and refresh_rounds across runs.
[[nodiscard]] TrainResult train_embedding_resume(const walk::CorpusReader& corpus,
                                                 const Embedding& warm_start,
                                                 const TrainerCheckpoint& checkpoint,
                                                 const TrainConfig& config);

}  // namespace v2v::embed
