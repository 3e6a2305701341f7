// Serial oracle for the 1-thread trainer: the classic word2vec per-target
// loop — each noise sample drawn right before its pair update, each
// pair's loss from std::log — written out plainly over public APIs, and
// compared bit for bit (embedding bytes and every epoch_loss) with
// train_embedding. The trainer plans a target's output rows, prefetches
// them and only then updates, and reads the loss from the sigmoid table;
// this suite is what proves those changes leave every result unchanged.
// Every CI lane that runs the whole suite runs it, so the generic
// (V2V_FORCE_SCALAR) lane checks the scalar kernels the same way.
#include "v2v/embed/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "v2v/common/kernels.hpp"
#include "v2v/common/matrix.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/common/thread_pool.hpp"
#include "v2v/embed/huffman.hpp"
#include "v2v/embed/sigmoid_table.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/walk/alias_table.hpp"
#include "v2v/walk/walker.hpp"

namespace v2v::embed {
namespace {

struct OracleResult {
  MatrixF syn0;
  std::vector<double> epoch_loss;
};

/// Plain serial word2vec over `corpus` with train_embedding's seeding,
/// chunking and learning-rate schedule (1 thread, no early stopping).
OracleResult oracle_train(const walk::Corpus& corpus, std::size_t vocab,
                          const TrainConfig& config) {
  const std::size_t d = config.dimensions;
  const bool cbow = config.architecture == Architecture::kCbow;
  const bool negative_sampling = config.objective == Objective::kNegativeSampling;

  // Input vectors: uniform in [-0.5, 0.5) / d from one stream.
  OracleResult out{MatrixF(vocab, d), {}};
  Rng init(config.seed);
  for (std::size_t v = 0; v < vocab; ++v) {
    auto row = out.syn0.row(v);
    for (auto& x : row) x = init.next_float() - 0.5f;
    kernels::scale(row.data(), 1.0f / static_cast<float>(d), d);
  }
  MatrixF& syn0 = out.syn0;

  std::vector<std::uint64_t> freq(vocab, 0);
  for (std::size_t w = 0; w < corpus.walk_count(); ++w) {
    for (const auto token : corpus.walk(w)) ++freq[token];
  }
  const auto total = static_cast<double>(corpus.token_count());

  // Output layer: HS inner nodes, or per-vertex rows with freq^0.75 noise.
  std::optional<HuffmanTree> huffman;
  walk::AliasTable noise;
  MatrixF syn1;
  if (negative_sampling) {
    syn1 = MatrixF(vocab, d);
    std::vector<double> weights(vocab);
    for (std::size_t v = 0; v < vocab; ++v) {
      weights[v] = std::pow(static_cast<double>(std::max<std::uint64_t>(freq[v], 1)), 0.75);
    }
    noise = walk::AliasTable(weights);
  } else {
    huffman.emplace(std::span<const std::uint64_t>(freq));
    syn1 = MatrixF(huffman->inner_count(), d);
  }

  std::vector<double> keep;  // word2vec "-sample"; empty keeps every token
  if (config.subsample > 0.0 && corpus.token_count() > 0) {
    keep.assign(vocab, 1.0);
    for (std::size_t v = 0; v < vocab; ++v) {
      const double f = static_cast<double>(freq[v]) / total;
      if (f > config.subsample) {
        keep[v] = std::sqrt(config.subsample / f) + config.subsample / f;
      }
    }
  }

  // Linear decay over the planned tokens, refreshed every 10,000 tokens.
  const double planned =
      static_cast<double>(std::max<std::uint64_t>(1, config.epochs * corpus.token_count()));
  std::uint64_t tokens_done = 0;
  const auto rate = [&] {
    const double frac = std::min(1.0, static_cast<double>(tokens_done) / planned);
    return static_cast<float>(std::max(config.initial_lr * (1.0 - frac),
                                       config.initial_lr * config.min_lr_fraction));
  };

  std::vector<float> neu1(d), grad(d);
  float lr = 0.0f;
  double target_loss = 0.0;
  const auto pair = [&](const float* input, std::uint32_t row, float label) {
    float* out_row = syn1.row(row).data();
    const float f = kernels::dot(input, out_row, d);
    const float sig = sigmoid_table()(f);
    const float g = (label - sig) * lr;
    kernels::axpy(g, out_row, grad.data(), d);
    kernels::axpy(g, input, out_row, d);
    const double p = label > 0.5f ? sig : 1.0f - sig;
    target_loss += -std::log(std::max(p, 1e-7));
  };
  const auto train_target = [&](const float* input, std::uint32_t target, Rng& rng) {
    kernels::fill(grad.data(), 0.0f, d);
    target_loss = 0.0;
    if (negative_sampling) {
      pair(input, target, 1.0f);
      for (std::size_t k = 0; k < config.negative; ++k) {
        const auto sample = static_cast<std::uint32_t>(noise.sample(rng));
        if (sample != target) pair(input, sample, 0.0f);
      }
    } else {
      const HuffmanCode& code = huffman->code(target);
      for (std::size_t b = 0; b < code.code.size(); ++b) {
        pair(input, code.points[b], code.code[b] == 0 ? 1.0f : 0.0f);
      }
    }
    return target_loss;
  };

  const std::size_t walks = corpus.walk_count();
  const std::size_t grain = config.grain != 0 ? config.grain : default_grain(walks, 1);
  const std::size_t chunks = chunk_count(walks, grain);
  const Rng root(config.seed ^ 0xd1b54a32d192ed03ULL);
  const std::size_t window = config.window;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    double epoch_loss = 0.0;
    std::uint64_t examples = 0;
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      Rng rng = root.fork(epoch * chunks + chunk);
      lr = rate();
      std::uint64_t since_refresh = 0;
      double chunk_loss = 0.0;
      for (std::size_t w = chunk * grain; w < std::min(walks, (chunk + 1) * grain); ++w) {
        std::vector<std::uint32_t> sentence;
        for (const auto token : corpus.walk(w)) {
          if (!keep.empty() && rng.next_double() >= keep[token]) continue;
          sentence.push_back(token);
        }
        for (std::size_t pos = 0; pos < sentence.size(); ++pos) {
          const std::size_t span = window - rng.next_below(window);  // in [1, window]
          const std::size_t lo = pos > span ? pos - span : 0;
          const std::size_t hi = std::min(sentence.size(), pos + span + 1);
          if (cbow) {
            kernels::fill(neu1.data(), 0.0f, d);
            std::size_t count = 0;
            for (std::size_t c = lo; c < hi; ++c) {
              if (c == pos) continue;
              kernels::add(syn0.row(sentence[c]).data(), neu1.data(), d);
              ++count;
            }
            if (count == 0) continue;
            kernels::scale(neu1.data(), 1.0f / static_cast<float>(count), d);
            chunk_loss += train_target(neu1.data(), sentence[pos], rng);
            ++examples;
            for (std::size_t c = lo; c < hi; ++c) {
              if (c != pos) kernels::add(grad.data(), syn0.row(sentence[c]).data(), d);
            }
          } else {
            for (std::size_t c = lo; c < hi; ++c) {
              if (c == pos) continue;
              float* input = syn0.row(sentence[c]).data();
              chunk_loss += train_target(input, sentence[pos], rng);
              ++examples;
              kernels::add(grad.data(), input, d);
            }
          }
        }
        since_refresh += corpus.walk(w).size();
        if (since_refresh >= 10000) {
          tokens_done += since_refresh;
          since_refresh = 0;
          lr = rate();
        }
      }
      tokens_done += since_refresh;
      epoch_loss += chunk_loss;
    }
    out.epoch_loss.push_back(examples > 0 ? epoch_loss / static_cast<double>(examples)
                                          : 0.0);
  }
  return out;
}

/// 60-vertex planted graph, 10 walks of 20 per vertex: 12,000 tokens, so
/// a one-chunk run crosses the 10,000-token learning-rate refresh.
const walk::Corpus& oracle_corpus() {
  static const walk::Corpus corpus = [] {
    graph::PlantedPartitionParams params;
    params.groups = 4;
    params.group_size = 15;
    params.alpha = 0.6;
    params.inter_edges = 12;
    Rng rng(31);
    const auto planted = graph::make_planted_partition(params, rng);
    walk::WalkConfig config;
    config.walks_per_vertex = 10;
    config.walk_length = 20;
    return walk::generate_corpus(planted.graph, config, 37);
  }();
  return corpus;
}

constexpr std::size_t kVocab = 60;

void expect_matches_oracle(const TrainConfig& config) {
  const walk::Corpus& corpus = oracle_corpus();
  const TrainResult trained = train_embedding(corpus, kVocab, config);
  const OracleResult oracle = oracle_train(corpus, kVocab, config);
  const MatrixF& got = trained.embedding.matrix();
  ASSERT_EQ(got.rows(), oracle.syn0.rows());
  for (std::size_t v = 0; v < got.rows(); ++v) {
    ASSERT_EQ(std::memcmp(got.row(v).data(), oracle.syn0.row(v).data(),
                          config.dimensions * sizeof(float)),
              0)
        << "vertex " << v << " differs";
  }
  EXPECT_EQ(trained.stats.epoch_loss, oracle.epoch_loss);
}

struct OracleCase {
  Architecture architecture;
  Objective objective;
  std::size_t dimensions;
  std::size_t window;
  double subsample;
};

class TrainerOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(TrainerOracle, SingleThreadMatchesSerialReferenceBitForBit) {
  const OracleCase& c = GetParam();
  TrainConfig config;
  config.architecture = c.architecture;
  config.objective = c.objective;
  config.dimensions = c.dimensions;
  config.window = c.window;
  config.subsample = c.subsample;
  if (c.architecture == Architecture::kSkipGram) config.initial_lr = 0.025;
  config.epochs = 2;
  config.seed = 9;
  expect_matches_oracle(config);
}

std::vector<OracleCase> all_cases() {
  std::vector<OracleCase> cases;
  for (const auto architecture : {Architecture::kCbow, Architecture::kSkipGram}) {
    for (const auto objective :
         {Objective::kNegativeSampling, Objective::kHierarchicalSoftmax}) {
      for (const std::size_t dimensions : {13u, 32u, 100u}) {
        for (const std::size_t window : {1u, 5u}) {
          for (const double subsample : {0.0, 1e-3}) {
            cases.push_back({architecture, objective, dimensions, window, subsample});
          }
        }
      }
    }
  }
  return cases;
}

std::string describe(const OracleCase& c) {
  std::string name = c.architecture == Architecture::kCbow ? "Cbow" : "SkipGram";
  name += c.objective == Objective::kNegativeSampling ? "Ns" : "Hs";
  name += 'D';
  name += std::to_string(c.dimensions);
  name += 'W';
  name += std::to_string(c.window);
  name += c.subsample > 0.0 ? "Sub" : "Full";
  return name;
}

// gtest would otherwise print the case as raw bytes, padding included, and
// CTest puts that print into the registered test name.
void PrintTo(const OracleCase& c, std::ostream* os) { *os << describe(c); }

std::string case_name(const ::testing::TestParamInfo<OracleCase>& info) {
  return describe(info.param);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TrainerOracle, ::testing::ValuesIn(all_cases()),
                         case_name);

TEST(TrainerOracleSchedule, OneChunkCrossesTheLearningRateRefresh) {
  // A single 12,000-token chunk refreshes the rate mid-chunk after 10,000
  // tokens; the default grain never gets there on this corpus.
  for (const auto objective :
       {Objective::kNegativeSampling, Objective::kHierarchicalSoftmax}) {
    TrainConfig config;
    config.objective = objective;
    config.dimensions = 16;
    config.epochs = 2;
    config.grain = oracle_corpus().walk_count();
    expect_matches_oracle(config);
  }
}

}  // namespace
}  // namespace v2v::embed
