#include "v2v/embed/trainer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "v2v/common/aligned.hpp"
#include "v2v/common/kernels.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/common/thread_pool.hpp"
#include "v2v/common/timer.hpp"
#include "v2v/embed/huffman.hpp"
#include "v2v/embed/sigmoid_table.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/walk/alias_table.hpp"

namespace v2v::embed {
namespace {

/// All shared state of one training run; worker threads hold a reference.
struct TrainerState {
  const TrainConfig& config;
  MatrixF syn0;      // input vectors == the embedding
  MatrixF syn1;      // output vectors (HS inner nodes or NS per-vertex)
  walk::AliasTable noise;           // NS noise distribution ~ freq^0.75
  HuffmanTree* huffman = nullptr;   // HS only
  std::vector<double> keep_probability;  // subsampling; empty = keep all
  std::atomic<std::uint64_t> tokens_processed{0};
  std::uint64_t planned_tokens = 0;

  explicit TrainerState(const TrainConfig& cfg) : config(cfg) {}
};

/// Per-thread accumulators, merged after each epoch.
struct EpochShard {
  double loss = 0.0;
  std::uint64_t examples = 0;
};

float current_lr(const TrainerState& state) {
  const auto done = static_cast<double>(
      state.tokens_processed.load(std::memory_order_relaxed));
  const double frac = std::min(1.0, done / static_cast<double>(state.planned_tokens));
  const double lr = state.config.initial_lr * (1.0 - frac);
  return static_cast<float>(
      std::max(lr, state.config.initial_lr * state.config.min_lr_fraction));
}

/// Per-worker trainer: owns scratch buffers and the SGD inner loop for one
/// sentence (walk); one trains each chunk of an epoch.
///
/// The loop is written once, over one ISA's kernels::RowOps, and compiled
/// per ISA into a flattened entry point; the constructor picks the entry
/// point of kernels::active_isa(), so a row operation is inlined code, not
/// a dispatched call, and computes what the ISA's KernelSet member does.
///
/// An update trains one target against its planned output rows (NS: the
/// target, then the noise samples minus collisions; HS: the Huffman path)
/// from one input vector: the mean of the context rows under CBOW, one
/// context row under SkipGram. The loop plans each update one ahead: it
/// draws the next update's window and output rows, requests those rows'
/// cache lines for writing, and only then runs the current update. The
/// rows other workers keep writing are thus in flight for a whole update,
/// instead of each pair's dot stalling on a line another core just
/// dirtied. Updates draw nothing from the RNG, so the stream — and every
/// 1-thread result — is the same as drawing each sample just before its
/// pair update.
class SentenceTrainer {
 public:
  SentenceTrainer(TrainerState& state, Rng rng)
      : state_(state),
        sigmoid_(sigmoid_table()),
        rng_(rng),
        neu1_(state.config.dimensions),
        grad_(state.config.dimensions),
        lr_(current_lr(state)),
        prefetchw_(kernels::has_prefetchw()),
        sgd_(sgd_for(kernels::active_isa())) {}

  void train_sentence(std::span<const std::uint32_t> raw_walk) {
    sentence_.clear();
    for (const auto token : raw_walk) {
      if (!state_.keep_probability.empty() &&
          rng_.next_double() >= state_.keep_probability[token]) {
        continue;
      }
      sentence_.push_back(token);
    }
    sgd_(*this);

    since_lr_update_ += raw_walk.size();
    if (since_lr_update_ >= 10000) {
      state_.tokens_processed.fetch_add(since_lr_update_, std::memory_order_relaxed);
      since_lr_update_ = 0;
      lr_ = current_lr(state_);
    }
  }

  /// Flushes the residual token count and returns the accumulated stats.
  [[nodiscard]] EpochShard finish() {
    state_.tokens_processed.fetch_add(since_lr_update_, std::memory_order_relaxed);
    since_lr_update_ = 0;
    return shard_;
  }

 private:
  /// An output row one update will touch, and its label (1 = positive).
  struct PlannedRow {
    std::uint32_t row;
    std::uint32_t label;
  };

  /// One update: target sentence_[pos], trained from the context
  /// positions [lo, hi) other than pos — the whole window under CBOW, one
  /// position under SkipGram.
  struct Update {
    std::size_t pos;
    std::size_t lo;
    std::size_t hi;
  };

  using Sgd = void (*)(SentenceTrainer&);

  // One entry point per ISA. flatten inlines run_sgd and every row
  // operation into it; GCC will not always_inline a target-attributed
  // body into the default-target template itself.
  [[gnu::flatten]] static void sgd_scalar(SentenceTrainer& trainer) {
    trainer.run_sgd<kernels::RowOps<kernels::Isa::kScalar>>();
  }
#if V2V_KERNELS_X86
  [[gnu::target("sse2"), gnu::flatten]] static void sgd_sse2(SentenceTrainer& trainer) {
    trainer.run_sgd<kernels::RowOps<kernels::Isa::kSse2>>();
  }
  [[gnu::target("avx2,fma"), gnu::flatten]] static void sgd_avx2(
      SentenceTrainer& trainer) {
    trainer.run_sgd<kernels::RowOps<kernels::Isa::kAvx2>>();
  }
#endif

  static Sgd sgd_for(kernels::Isa isa) {
#if V2V_KERNELS_X86
    if (isa == kernels::Isa::kAvx2) return &sgd_avx2;
    if (isa == kernels::Isa::kSse2) return &sgd_sse2;
#endif
    (void)isa;
    return &sgd_scalar;
  }

  /// The SGD loop over sentence_: word2vec's window draw per target, then
  /// its updates, each planned one ahead of the one that runs.
  template <class Ops>
  void run_sgd() {
    const std::size_t window = state_.config.window;
    const bool cbow = state_.config.architecture == Architecture::kCbow;
    Update current{};
    bool pending = false;
    // Plans `next` into next_plan_, prefetches its rows, then runs the
    // update planned before it.
    const auto plan_then_run_previous = [&](const Update& next) {
      plan_rows(sentence_[next.pos], next_plan_);
      prefetch_rows(next_plan_);
      if (pending) run_update<Ops>(current);
      std::swap(plan_, next_plan_);
      current = next;
      pending = true;
    };
    for (std::size_t pos = 0; pos < sentence_.size(); ++pos) {
      // word2vec's randomized effective window: uniform in [1, window].
      const std::size_t reduced = rng_.next_below(window);
      const std::size_t lo = pos > window - reduced ? pos - (window - reduced) : 0;
      const std::size_t hi = std::min(sentence_.size(), pos + (window - reduced) + 1);
      if (cbow) {
        if (hi - lo == 1) continue;  // no context besides pos
        plan_then_run_previous({pos, lo, hi});
      } else {
        for (std::size_t c = lo; c < hi; ++c) {
          if (c != pos) plan_then_run_previous({pos, c, c + 1});
        }
      }
    }
    if (pending) run_update<Ops>(current);
  }

  /// Draws `target`'s output rows into `rows`, in the order its update
  /// trains them.
  void plan_rows(std::uint32_t target, std::vector<PlannedRow>& rows) {
    rows.clear();
    if (state_.config.objective == Objective::kNegativeSampling) {
      rows.push_back({target, 1});
      for (std::size_t k = 0; k < state_.config.negative; ++k) {
        const auto sample = static_cast<std::uint32_t>(state_.noise.sample(rng_));
        if (sample == target) continue;  // word2vec skips collisions
        rows.push_back({sample, 0});
      }
    } else {
      const HuffmanCode& code = state_.huffman->code(target);
      for (std::size_t b = 0; b < code.code.size(); ++b) {
        // Huffman branch 0 is the "positive" direction, as in word2vec.
        rows.push_back({code.points[b], code.code[b] == 0 ? 1u : 0u});
      }
    }
  }

  /// Requests every cache line of `rows` for writing.
  void prefetch_rows(const std::vector<PlannedRow>& rows) const {
    const std::size_t row_bytes = state_.config.dimensions * sizeof(float);
    for (const PlannedRow& planned : rows) {
      kernels::prefetch_for_write(state_.syn1.row(planned.row).data(), row_bytes,
                                  prefetchw_);
    }
  }

  /// Runs `update` against the rows in plan_: assembles the input vector,
  /// runs each pair (grad = (label - sigma(f)) * lr, accumulated into
  /// grad_ while the output row moves toward the input), then adds grad_
  /// back to the context rows.
  ///
  /// Hogwild note: the syn0/syn1 rows read and written here may be
  /// concurrently touched by other workers; the row operations tolerate
  /// that (SIMD on the fast paths, relaxed_load/relaxed_store scalar under
  /// TSan, see common/kernels.hpp). The input vector never aliases an
  /// output row (CBOW passes the private neu1 buffer; SkipGram a syn0 row
  /// while the output rows are syn1 rows), as axpy_pair requires.
  template <class Ops>
  void run_update(const Update& update) {
    const std::size_t d = state_.config.dimensions;
    const float* input = nullptr;
    if (state_.config.architecture == Architecture::kCbow) {
      Ops::fill(neu1_.data(), 0.0f, d);
      for (std::size_t c = update.lo; c < update.hi; ++c) {
        if (c == update.pos) continue;
        Ops::add(state_.syn0.row(sentence_[c]).data(), neu1_.data(), d);
      }
      Ops::scale(neu1_.data(), 1.0f / static_cast<float>(update.hi - update.lo - 1), d);
      input = neu1_.data();
    } else {
      input = state_.syn0.row(sentence_[update.lo]).data();
    }
    // Request the planned rows again: a no-op for lines this core still
    // holds, while lines another worker took back since the plan are
    // requested together here rather than one miss per pair.
    prefetch_rows(plan_);
    Ops::fill(grad_.data(), 0.0f, d);
    double loss = 0.0;
    for (const PlannedRow& planned : plan_) {
      float* row = state_.syn1.row(planned.row).data();
      const SigmoidTable::Entry& slot = sigmoid_.entry(Ops::dot(input, row, d));
      const float g = (static_cast<float>(planned.label) - slot.sigma) * lr_;
      Ops::axpy_pair(g, input, row, grad_.data(), d);
      // The pair's loss, from the same sigmoid-table slot as sigma.
      loss += slot.loss[planned.label];
    }
    shard_.loss += loss;
    ++shard_.examples;
    for (std::size_t c = update.lo; c < update.hi; ++c) {
      if (c == update.pos) continue;
      Ops::add(grad_.data(), state_.syn0.row(sentence_[c]).data(), d);
    }
  }

  TrainerState& state_;
  const SigmoidTable& sigmoid_;
  Rng rng_;
  AlignedVector<float> neu1_, grad_;  // 64-byte aligned SGD scratch
  std::vector<std::uint32_t> sentence_;
  std::vector<PlannedRow> plan_, next_plan_;  // the running and the next update's rows
  EpochShard shard_;
  float lr_;
  bool prefetchw_;
  Sgd sgd_;
  std::uint64_t since_lr_update_ = 0;
};

void validate_config(const TrainConfig& config) {
  if (config.dimensions == 0) throw std::invalid_argument("train: dimensions == 0");
  if (config.window == 0) throw std::invalid_argument("train: window == 0");
  if (config.epochs == 0) throw std::invalid_argument("train: epochs == 0");
  // The comparisons below are false for NaN, so NaN fails each check. SGD
  // runs the rate as a float: past FLT_MAX it casts to inf and the
  // embedding silently turns to NaN.
  if (!(config.initial_lr > 0.0 &&
        config.initial_lr <= std::numeric_limits<float>::max())) {
    throw std::invalid_argument("train: initial_lr must be finite, > 0 and <= FLT_MAX");
  }
  if (!(config.min_lr_fraction >= 0.0 && config.min_lr_fraction <= 1.0)) {
    throw std::invalid_argument("train: min_lr_fraction must be in [0, 1]");
  }
  if (!(std::isfinite(config.subsample) && config.subsample >= 0.0)) {
    throw std::invalid_argument("train: subsample must be finite and >= 0");
  }
  if (!(std::isfinite(config.convergence_tol) && config.convergence_tol >= 0.0)) {
    throw std::invalid_argument("train: convergence_tol must be finite and >= 0");
  }
}

void initialize_vectors(TrainerState& state, std::size_t vocab_size) {
  Rng init_rng(state.config.seed);
  state.syn0 = MatrixF(vocab_size, state.config.dimensions);
  const float inv_dims = 1.0f / static_cast<float>(state.config.dimensions);
  for (std::size_t v = 0; v < vocab_size; ++v) {
    auto row = state.syn0.row(v);
    for (auto& x : row) x = init_rng.next_float() - 0.5f;
    kernels::scale(row.data(), inv_dims, row.size());
  }
}

/// Sets up the output layer and noise/Huffman structures from the corpus's
/// frequency profile. Returns the HuffmanTree by value so its storage
/// outlives the training loop.
std::unique_ptr<HuffmanTree> initialize_objective(
    TrainerState& state, std::span<const std::uint64_t> frequencies) {
  std::unique_ptr<HuffmanTree> huffman;
  if (state.config.objective == Objective::kHierarchicalSoftmax) {
    huffman = std::make_unique<HuffmanTree>(frequencies);
    state.huffman = huffman.get();
    state.syn1 = MatrixF(huffman->inner_count(), state.config.dimensions);
  } else {
    state.syn1 = MatrixF(frequencies.size(), state.config.dimensions);
    std::vector<double> noise_weights(frequencies.size());
    for (std::size_t v = 0; v < frequencies.size(); ++v) {
      noise_weights[v] =
          std::pow(static_cast<double>(std::max<std::uint64_t>(frequencies[v], 1)), 0.75);
    }
    state.noise = walk::AliasTable(noise_weights);
  }
  return huffman;
}

void initialize_subsampling(TrainerState& state,
                            std::span<const std::uint64_t> frequencies,
                            std::uint64_t total_tokens) {
  if (state.config.subsample <= 0.0 || total_tokens == 0) return;
  state.keep_probability.assign(frequencies.size(), 1.0);
  const auto total = static_cast<double>(total_tokens);
  for (std::size_t v = 0; v < frequencies.size(); ++v) {
    const double f = static_cast<double>(frequencies[v]) / total;
    if (f > state.config.subsample) {
      state.keep_probability[v] =
          std::sqrt(state.config.subsample / f) + state.config.subsample / f;
    }
  }
}

/// The chunked epoch loop. Chunks are `grain` walks, resolved from
/// walk_count alone, so the RAM and the streamed corpus train
/// bit-identically. Chunk c of epoch e trains through a SentenceTrainer
/// seeded root.fork(e * chunks + c) on one for_each_walk call over its
/// walks, and the per-chunk stats are summed in chunk order, so results
/// depend only on (seed, grain), never on the schedule (exact with 1
/// thread; Hogwild-racy above). Each worker owns a contiguous home range
/// of chunks (parallel_for_dynamic) and steals only once it is drained:
/// on a start-vertex-ordered corpus the workers then train different
/// communities at once instead of sharing one community's output rows.
TrainResult run_training(TrainerState& state, const walk::CorpusReader& corpus) {
  WallTimer timer;
  TrainResult result;
  double prev_loss = 0.0;
  const TrainConfig& config = state.config;
  obs::MetricsRegistry* metrics = config.metrics;
  const obs::ScopedTimer train_span(metrics, "train");
  const Rng root(config.seed ^ 0xd1b54a32d192ed03ULL);
  const std::size_t threads = std::max<std::size_t>(1, config.threads);
  const std::size_t walks = corpus.walk_count();
  const std::size_t grain =
      config.grain != 0 ? config.grain : default_grain(walks, threads);
  const std::size_t chunks = chunk_count(walks, grain);

  if (metrics != nullptr) {
    metrics->gauge("train.grain").set(static_cast<double>(grain));
    metrics->gauge("train.chunks").set(static_cast<double>(chunks));
    metrics->counter(std::string("train.isa.") + kernels::active_isa_name()).add(1);
  }

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const obs::ScopedTimer epoch_span(metrics, "epoch");
    const std::uint64_t tokens_before =
        state.tokens_processed.load(std::memory_order_relaxed);
    std::vector<EpochShard> shards(chunks);
    parallel_for_dynamic(
        threads, walks, grain,
        [&](std::size_t /*worker*/, std::size_t chunk, std::size_t begin,
            std::size_t end) {
          SentenceTrainer trainer(state, root.fork(epoch * chunks + chunk));
          corpus.for_each_walk(begin, end, [&](std::span<const graph::VertexId> walk) {
            trainer.train_sentence(walk);
          });
          shards[chunk] = trainer.finish();
        });
    EpochShard totals;
    for (const auto& shard : shards) {
      totals.loss += shard.loss;
      totals.examples += shard.examples;
    }
    result.stats.examples += totals.examples;
    const double mean_loss =
        totals.examples > 0 ? totals.loss / static_cast<double>(totals.examples) : 0.0;
    result.stats.epoch_loss.push_back(mean_loss);
    result.stats.epochs_run = epoch + 1;

    if (metrics != nullptr) {
      const double epoch_seconds = epoch_span.seconds();
      const std::uint64_t epoch_tokens =
          state.tokens_processed.load(std::memory_order_relaxed) - tokens_before;
      metrics->counter("train.epochs").add(1);
      metrics->counter("train.examples").add(totals.examples);
      metrics->counter("train.tokens").add(epoch_tokens);
      metrics->histogram("train.epoch_seconds", {0.0, 120.0, 240}).record(epoch_seconds);
      metrics->series("train.epoch_loss").append(mean_loss);
      metrics->series("train.lr").append(current_lr(state));
      if (epoch_seconds > 0.0) {
        const double words_per_sec =
            static_cast<double>(epoch_tokens) / epoch_seconds;
        metrics->series("train.words_per_sec").append(words_per_sec);
        metrics->gauge("train.words_per_sec").set(words_per_sec);
      }
    }

    if (config.convergence_tol > 0.0 && epoch + 1 >= config.min_epochs && epoch > 0) {
      if (prev_loss - mean_loss < config.convergence_tol * prev_loss) {
        result.stats.converged_early = true;
        break;
      }
    }
    prev_loss = mean_loss;
  }

  result.stats.train_seconds = timer.seconds();
  if (metrics != nullptr) {
    metrics->gauge("train.lr.final").set(current_lr(state));
    metrics->gauge("train.seconds").set(result.stats.train_seconds);
    if (result.stats.train_seconds > 0.0) {
      metrics->gauge("train.words_per_sec.mean")
          .set(static_cast<double>(
                   state.tokens_processed.load(std::memory_order_relaxed)) /
               result.stats.train_seconds);
    }
  }
  if (config.capture_checkpoint) {
    // The caller fills frequencies and the walk-parameter echo; this is
    // the state only the training loop knows.
    TrainerCheckpoint ckpt;
    ckpt.last_lr = current_lr(state);
    ckpt.tokens_processed = state.tokens_processed.load(std::memory_order_relaxed);
    ckpt.planned_tokens = state.planned_tokens;
    ckpt.syn1 = std::move(state.syn1);
    ckpt.architecture = config.architecture;
    ckpt.objective = config.objective;
    ckpt.dimensions = config.dimensions;
    ckpt.window = config.window;
    ckpt.negative = config.negative;
    ckpt.initial_lr = config.initial_lr;
    ckpt.min_lr_fraction = config.min_lr_fraction;
    ckpt.subsample = config.subsample;
    ckpt.seed = config.seed;
    result.checkpoint = std::move(ckpt);
  }
  result.embedding = Embedding(std::move(state.syn0));
  return result;
}

}  // namespace

TrainResult train_embedding(const walk::CorpusReader& corpus,
                            std::size_t vocab_size, const TrainConfig& config) {
  validate_config(config);
  if (vocab_size == 0) throw std::invalid_argument("train: empty vocabulary");
  if (corpus.token_count() > 0 && corpus.max_token() >= vocab_size) {
    throw std::invalid_argument("train: token out of vocabulary");
  }

  TrainerState state(config);
  state.planned_tokens =
      std::max<std::uint64_t>(1, config.epochs * corpus.token_count());
  initialize_vectors(state, vocab_size);
  const auto frequencies = corpus.vertex_frequencies(vocab_size);
  const auto huffman =
      initialize_objective(state, std::span<const std::uint64_t>(frequencies));
  initialize_subsampling(state, std::span<const std::uint64_t>(frequencies),
                         corpus.token_count());

  TrainResult result = run_training(state, corpus);
  if (result.checkpoint) result.checkpoint->frequencies = frequencies;
  return result;
}

TrainResult train_embedding_resume(const walk::CorpusReader& corpus,
                                   const Embedding& warm_start,
                                   const TrainerCheckpoint& checkpoint,
                                   const TrainConfig& config) {
  validate_config(config);
  if (config.dimensions != checkpoint.dimensions) {
    throw std::invalid_argument("resume: config/checkpoint dimensions disagree");
  }
  if (warm_start.dimensions() != config.dimensions) {
    throw std::invalid_argument("resume: warm-start dimensions disagree");
  }
  if (config.architecture != checkpoint.architecture ||
      config.objective != checkpoint.objective) {
    throw std::invalid_argument(
        "resume: architecture/objective differ from the checkpoint");
  }
  std::size_t vocab_size = warm_start.vertex_count();
  if (corpus.token_count() > 0) {
    vocab_size = std::max<std::size_t>(
        vocab_size, static_cast<std::size_t>(corpus.max_token()) + 1);
  }
  if (vocab_size == 0) throw std::invalid_argument("resume: empty vocabulary");

  TrainerState state(config);
  state.planned_tokens =
      std::max<std::uint64_t>(1, config.epochs * corpus.token_count());

  // syn0: warm rows verbatim, new vertices get the usual small random
  // init from a per-row stream, so the result is independent of how many
  // refreshes it took to reach this vocabulary.
  const std::size_t d = config.dimensions;
  state.syn0 = MatrixF(vocab_size, d);
  for (std::size_t v = 0; v < warm_start.vertex_count(); ++v) {
    const auto src = warm_start.vector(v);
    auto dst = state.syn0.row(v);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  const Rng init_root(config.seed ^ 0xa0761d6478bd642fULL);
  const float inv_dims = 1.0f / static_cast<float>(d);
  for (std::size_t v = warm_start.vertex_count(); v < vocab_size; ++v) {
    Rng row_rng = init_root.fork(v);
    auto row = state.syn0.row(v);
    for (auto& x : row) x = row_rng.next_float() - 0.5f;
    kernels::scale(row.data(), inv_dims, row.size());
  }

  const auto new_frequencies = corpus.vertex_frequencies(vocab_size);
  std::unique_ptr<HuffmanTree> huffman;
  if (config.objective == Objective::kHierarchicalSoftmax) {
    // syn1 rows are tied to Huffman tree topology, which is a pure
    // function of the stored frequency profile — so the tree must be
    // rebuilt from the checkpoint, and the vocabulary cannot grow.
    if (vocab_size > checkpoint.frequencies.size()) {
      throw std::invalid_argument(
          "resume: vocabulary grew under hierarchical softmax");
    }
    huffman = std::make_unique<HuffmanTree>(
        std::span<const std::uint64_t>(checkpoint.frequencies));
    state.huffman = huffman.get();
    if (checkpoint.syn1.rows() != huffman->inner_count() ||
        checkpoint.syn1.cols() != d) {
      throw std::invalid_argument("resume: checkpoint syn1 shape mismatch");
    }
    state.syn1 = checkpoint.syn1;
  } else {
    if (checkpoint.syn1.cols() != d || checkpoint.syn1.rows() > vocab_size) {
      throw std::invalid_argument("resume: checkpoint syn1 shape mismatch");
    }
    // Warm output rows verbatim; new vertices start at zero (the word2vec
    // convention for fresh output vectors). The noise distribution is
    // recomputed from the NEW corpus so sampling tracks current structure.
    state.syn1 = MatrixF(vocab_size, d);
    for (std::size_t v = 0; v < checkpoint.syn1.rows(); ++v) {
      const auto src = checkpoint.syn1.row(v);
      auto dst = state.syn1.row(v);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    std::vector<double> noise_weights(vocab_size);
    for (std::size_t v = 0; v < vocab_size; ++v) {
      noise_weights[v] = std::pow(
          static_cast<double>(std::max<std::uint64_t>(new_frequencies[v], 1)), 0.75);
    }
    state.noise = walk::AliasTable(noise_weights);
  }
  initialize_subsampling(state, std::span<const std::uint64_t>(new_frequencies),
                         corpus.token_count());

  TrainResult result = run_training(state, corpus);
  if (result.checkpoint) {
    result.checkpoint->frequencies =
        config.objective == Objective::kHierarchicalSoftmax
            ? checkpoint.frequencies
            : new_frequencies;
    result.checkpoint->tokens_processed += checkpoint.tokens_processed;
    result.checkpoint->walks_per_vertex = checkpoint.walks_per_vertex;
    result.checkpoint->walk_length = checkpoint.walk_length;
    result.checkpoint->walk_seed = checkpoint.walk_seed;
    result.checkpoint->refresh_rounds = checkpoint.refresh_rounds + 1;
  }
  return result;
}

}  // namespace v2v::embed
