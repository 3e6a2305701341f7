// Wide property sweep over the full pipeline: every combination of walk
// bias, architecture, objective and streaming mode must produce an
// embedding that separates planted communities, across seeds. This is the
// "no configuration silently broken" safety net.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "v2v/core/analysis.hpp"
#include "v2v/core/v2v.hpp"
#include "v2v/graph/generators.hpp"

namespace v2v {
namespace {

// gtest prints a parameter it has no printer for as its raw bytes, and
// CTest names the test after that dump. Padding would print whatever the
// stack held, which changes from build to build, so the gap before `seed`
// is a named zero field instead.
struct PipelineCase {
  PipelineCase(walk::StepBias b, embed::Architecture a, embed::Objective o,
               bool s, std::uint64_t sd)
      : bias(b), architecture(a), objective(o), streaming(s), seed(sd) {}

  walk::StepBias bias;
  embed::Architecture architecture;
  embed::Objective objective;
  bool streaming;
  std::uint32_t zero = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<PipelineCase>);

class FullPipelineSweep : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(FullPipelineSweep, SeparatesCommunities) {
  const auto param = GetParam();
  graph::PlantedPartitionParams params;
  params.groups = 4;
  params.group_size = 18;
  params.alpha = 0.7;
  params.inter_edges = 20;
  Rng rng(param.seed);
  auto planted = graph::make_planted_partition(params, rng);

  // Vertex-weight bias needs vertex weights; rebuild with uniform ones
  // plus slight variation so the bias path is actually exercised.
  if (param.bias == walk::StepBias::kVertexWeight ||
      param.bias == walk::StepBias::kEdgeWeight) {
    graph::GraphBuilder builder(false);
    Rng wrng(param.seed + 1);
    for (graph::VertexId u = 0; u < planted.graph.vertex_count(); ++u) {
      for (const auto v : planted.graph.neighbors(u)) {
        if (v > u) builder.add_edge(u, v, 0.5 + wrng.next_double());
      }
      builder.set_vertex_weight(u, 0.5 + wrng.next_double());
    }
    planted.graph = builder.build();
  }

  V2VConfig config;
  config.walk.walks_per_vertex = 8;
  config.walk.walk_length = 25;
  config.walk.bias = param.bias;
  config.train.dimensions = 16;
  config.train.epochs = 4;
  config.train.architecture = param.architecture;
  config.train.objective = param.objective;
  if (param.architecture == embed::Architecture::kSkipGram) {
    config.train.initial_lr = 0.025;
  }
  config.streaming = param.streaming;
  config.seed = param.seed;

  const auto model = learn_embedding(planted.graph, config);
  const auto report = cosine_margin(model.embedding, planted.community);
  EXPECT_GT(report.margin(), 0.15)
      << "bias=" << static_cast<int>(param.bias)
      << " arch=" << static_cast<int>(param.architecture)
      << " obj=" << static_cast<int>(param.objective)
      << " streaming=" << param.streaming << " seed=" << param.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FullPipelineSweep,
    ::testing::Values(
        PipelineCase{walk::StepBias::kUniform, embed::Architecture::kCbow,
                     embed::Objective::kNegativeSampling, false, 1},
        PipelineCase{walk::StepBias::kUniform, embed::Architecture::kCbow,
                     embed::Objective::kNegativeSampling, true, 2},
        PipelineCase{walk::StepBias::kUniform, embed::Architecture::kCbow,
                     embed::Objective::kHierarchicalSoftmax, false, 3},
        PipelineCase{walk::StepBias::kUniform, embed::Architecture::kCbow,
                     embed::Objective::kHierarchicalSoftmax, true, 4},
        PipelineCase{walk::StepBias::kUniform, embed::Architecture::kSkipGram,
                     embed::Objective::kNegativeSampling, false, 5},
        PipelineCase{walk::StepBias::kUniform, embed::Architecture::kSkipGram,
                     embed::Objective::kHierarchicalSoftmax, false, 6},
        PipelineCase{walk::StepBias::kEdgeWeight, embed::Architecture::kCbow,
                     embed::Objective::kNegativeSampling, false, 7},
        PipelineCase{walk::StepBias::kEdgeWeight, embed::Architecture::kCbow,
                     embed::Objective::kNegativeSampling, true, 8},
        PipelineCase{walk::StepBias::kVertexWeight, embed::Architecture::kCbow,
                     embed::Objective::kNegativeSampling, false, 9},
        PipelineCase{walk::StepBias::kVertexWeight, embed::Architecture::kSkipGram,
                     embed::Objective::kNegativeSampling, false, 10}));

}  // namespace
}  // namespace v2v
