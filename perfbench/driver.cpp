// End-to-end benchmark driver for the V2V pipeline. One process runs one
// workload: it makes its inputs from --seed, sets the program up several
// times (reporting the median), measures for --seconds, checks every
// output, and prints one JSON result line last on stdout.
//
// Workloads
//   embed_planted  Paper §III-A planted-partition graphs (10 groups of 100
//                  vertices, 200 inter-group edges, alpha drawn per graph
//                  from [0.3, 0.7]). One user in a closed loop; one
//                  operation embeds one graph with 4 walk/train threads and
//                  predicts every vertex's group from its 10 nearest
//                  neighbours (paper §V): walks -> CBOW training ->
//                  FlatIndex -> batched k-NN queries.
//   serve_ivfpq    A 20,000-vertex planted graph, embedded once by the
//                  pipeline and written as an IVF-PQ snapshot with floats,
//                  served by serve::Server with exact rerank to one client
//                  connection in a closed loop. One operation is one query
//                  over TCP ("the 10 vertices most like v"). The settings
//                  and their sources are listed above the workload's code.
//
// setup_s is the median of repeated set-ups (at least kMinSetupReps, more
// while they fit in kSetupBudgetMs): parsing the generated edge-list texts
// into CSR graphs (embed_planted), or mapping the snapshot, loading
// the index from it, engine warm-up and server start (serve_ivfpq).
//
// --trace 0 reports the end-to-end metrics latency_mean_ms (mean over all
// operations: for one closed-loop user, the time per operation) and
// setup_s; stderr also shows the operation count and p10, p25, p50, p90
// and p99. Busy neighbours on a shared host slow a core by up to 2x for
// seconds to minutes at a time. An operation spread over all cores
// averages that out; one pinned to a single core does not, so
// embed_planted runs one 4-thread operation at a time rather than four
// 1-thread ones. The mean, not the median, is the end-to-end metric:
// serve_ivfpq's latencies have two modes (about 0.7 and 1.0 ms), and its
// median moved between them from run to run (0.80 to 0.94 ms over five
// seeds, while p10 and p90 held within 7%).
// --trace 1 reports per-layer medians from spans the driver places around
// its calls into each layer: walk_ms (walk::generate_corpus), train_ms
// (embed::train_embedding), index_build_ms (index constructor) and
// search_us (QueryEngine per query). For serve_ivfpq walk, train and
// index build come from making the served snapshot once, and search_us
// from a pass after the closed loop, so the loop itself runs unchanged.
//
// Usage: v2v_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/embed/trainer.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/graph/io.hpp"
#include "v2v/index/flat_index.hpp"
#include "v2v/index/ivfpq_index.hpp"
#include "v2v/index/query_engine.hpp"
#include "v2v/serve/client.hpp"
#include "v2v/serve/server.hpp"
#include "v2v/store/embedding_view.hpp"
#include "v2v/store/format.hpp"
#include "v2v/walk/walker.hpp"

namespace {

using namespace v2v;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinSetupReps = 3;
constexpr double kSetupBudgetMs = 2000.0;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Set-up times for a median: runs `set_up` (which returns the seconds its
/// timed part took) at least kMinSetupReps times and, while it is cheap,
/// until kSetupBudgetMs have passed.
template <typename SetUp>
std::vector<double> repeat_setup(SetUp&& set_up) {
  std::vector<double> seconds;
  const auto first = Clock::now();
  while (seconds.size() < kMinSetupReps || ms_since(first) < kSetupBudgetMs) {
    seconds.push_back(set_up());
  }
  return seconds;
}

/// Linear-interpolated quantile (numpy's default) of an unsorted sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::logic_error("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  return splitmix64(state);
}

// ---------------------------------------------------------------------------
// Inputs and the shared embedding step
// ---------------------------------------------------------------------------

/// Generated input graph: the text of an undirected edge list ("u v"
/// lines, as v2v_tool reads it) plus the planted group of every vertex.
/// The program sees only the text.
struct EdgeListInput {
  std::size_t vertices = 0;
  std::string text;
  std::vector<std::uint32_t> group;
  std::size_t groups = 0;
};

EdgeListInput make_input(const graph::PlantedPartitionParams& params, Rng& rng) {
  const graph::PlantedGraph planted = graph::make_planted_partition(params, rng);
  EdgeListInput input;
  input.vertices = planted.graph.vertex_count();
  for (graph::VertexId u = 0; u < input.vertices; ++u) {
    for (const graph::VertexId v : planted.graph.neighbors(u)) {
      if (u < v) input.text += std::to_string(u) + ' ' + std::to_string(v) + '\n';
    }
  }
  input.group = planted.community;
  input.groups = planted.group_count;
  return input;
}

/// Parses the edge list into the CSR graph, as v2v_tool does with a file.
graph::Graph load_graph(const EdgeListInput& input) {
  std::istringstream in(input.text);
  graph::Graph g = graph::read_edge_list(in);
  if (g.vertex_count() != input.vertices) {
    throw std::runtime_error("edge list lost an isolated vertex");
  }
  return g;
}

/// Per-layer samples from the spans around each layer call.
struct LayerSamples {
  std::vector<double> walk_ms;
  std::vector<double> train_ms;
  std::vector<double> index_build_ms;
  std::vector<double> search_us;
};

struct EmbedParams {
  std::size_t walks_per_vertex;
  std::size_t walk_length;
  std::size_t dimensions;
  std::size_t epochs;
};

/// Threads for walks, training and batched k-NN: every core of the 4-core
/// host, so an operation feels the mean of the cores' speeds, not one's.
constexpr std::size_t kThreads = 4;

/// Walks + CBOW training. Walks are deterministic per seed; Hogwild
/// training on several threads is not bit-reproducible, so callers check
/// the embedding by quality, not by bits.
embed::Embedding learn(const graph::Graph& g, const EmbedParams& params,
                       std::uint64_t seed, LayerSamples& layers) {
  walk::WalkConfig walk_config;
  walk_config.walks_per_vertex = params.walks_per_vertex;
  walk_config.walk_length = params.walk_length;
  walk_config.threads = kThreads;
  const auto walk_start = Clock::now();
  const walk::Corpus corpus = walk::generate_corpus(g, walk_config, seed);
  layers.walk_ms.push_back(ms_since(walk_start));

  embed::TrainConfig train_config;
  train_config.dimensions = params.dimensions;
  train_config.epochs = params.epochs;
  train_config.threads = kThreads;
  train_config.seed = mix(seed, 1);
  const auto train_start = Clock::now();
  embed::TrainResult trained =
      embed::train_embedding(corpus, g.vertex_count(), train_config);
  layers.train_ms.push_back(ms_since(train_start));
  return std::move(trained.embedding);
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> op_ms;
  std::vector<double> setup_seconds;
  LayerSamples layers;
};

void print_result(const Outcome& outcome, bool trace) {
  const double mean_ms =
      std::accumulate(outcome.op_ms.begin(), outcome.op_ms.end(), 0.0) /
      static_cast<double>(outcome.op_ms.size());
  std::fprintf(stderr,
               "%zu ops; latency ms mean %.4g p10 %.4g p25 %.4g p50 %.4g p90 %.4g "
               "p99 %.4g\n",
               outcome.op_ms.size(), mean_ms, quantile(outcome.op_ms, 0.10),
               quantile(outcome.op_ms, 0.25), quantile(outcome.op_ms, 0.50),
               quantile(outcome.op_ms, 0.90), quantile(outcome.op_ms, 0.99));
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  if (trace) {
    metrics = {{"walk_ms", {median(outcome.layers.walk_ms), "ms"}},
               {"train_ms", {median(outcome.layers.train_ms), "ms"}},
               {"index_build_ms", {median(outcome.layers.index_build_ms), "ms"}},
               {"search_us", {median(outcome.layers.search_us), "us"}}};
  } else {
    metrics = {
        {"latency_mean_ms", {mean_ms, "ms"}},
        {"setup_s", {median(outcome.setup_seconds), "s"}}};
  }
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].second.first);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].first + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// ---------------------------------------------------------------------------
// embed_planted
// ---------------------------------------------------------------------------

constexpr std::size_t kPlantedPool = 16;
constexpr EmbedParams kPlantedEmbed{10, 40, 32, 1};
constexpr std::size_t kNeighbors = 10;
/// Leave-one-out k-NN accuracy every planted graph must reach; alpha >= 0.3
/// communities are recovered almost perfectly.
constexpr double kMinAccuracy = 0.9;

/// Paper §V label prediction: each vertex takes the majority group of its
/// kNeighbors nearest other vertices (ties to the smaller group id). All
/// vertices are queried as one batch.
double knn_accuracy(const index::QueryEngine& engine, const embed::Embedding& embedding,
                    const EdgeListInput& input) {
  const std::vector<std::vector<index::Neighbor>> answers =
      engine.query_batch(embedding.matrix(), kNeighbors + 1);
  std::vector<std::size_t> votes(input.groups);
  std::size_t hits = 0;
  for (std::uint32_t v = 0; v < input.vertices; ++v) {
    std::fill(votes.begin(), votes.end(), 0);
    std::size_t used = 0;
    for (const index::Neighbor& neighbor : answers[v]) {
      if (neighbor.id == v || used == kNeighbors) continue;
      ++votes[input.group[neighbor.id]];
      ++used;
    }
    const auto best = std::max_element(votes.begin(), votes.end()) - votes.begin();
    if (static_cast<std::uint32_t>(best) == input.group[v]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(input.vertices);
}

bool embed_and_predict(const graph::Graph& g, const EdgeListInput& input,
                       std::uint64_t seed, LayerSamples& layers) {
  const embed::Embedding embedding = learn(g, kPlantedEmbed, seed, layers);
  const auto build_start = Clock::now();
  const index::FlatIndex flat(store::EmbeddingView::of(embedding),
                              index::DistanceMetric::kCosine);
  const index::QueryEngine engine(
      flat, {.threads = kThreads, .metrics = nullptr});
  layers.index_build_ms.push_back(ms_since(build_start));
  const auto search_start = Clock::now();
  const double accuracy = knn_accuracy(engine, embedding, input);
  layers.search_us.push_back(ms_since(search_start) * 1e3 /
                             static_cast<double>(input.vertices));
  return accuracy >= kMinAccuracy;
}

Outcome run_embed_planted(std::uint64_t seed, double seconds) {
  Rng rng(seed);
  std::vector<EdgeListInput> inputs;
  for (std::size_t i = 0; i < kPlantedPool; ++i) {
    graph::PlantedPartitionParams params;  // paper §III-A: 10 x 100, 200 inter
    params.alpha = 0.3 + 0.4 * rng.next_double();
    inputs.push_back(make_input(params, rng));
  }

  Outcome outcome;
  std::vector<graph::Graph> graphs;
  outcome.setup_seconds = repeat_setup([&] {
    graphs.clear();
    const auto start = Clock::now();
    for (const EdgeListInput& input : inputs) graphs.push_back(load_graph(input));
    return ms_since(start) / 1e3;
  });
  LayerSamples warmup;
  outcome.correct &= embed_and_predict(graphs[0], inputs[0], mix(seed, 0), warmup);

  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
    const std::size_t which = i % kPlantedPool;
    const auto op_start = Clock::now();
    ++outcome.attempted;
    bool ok = false;
    try {
      ok = embed_and_predict(graphs[which], inputs[which], mix(seed, i + 1),
                             outcome.layers);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "embed op %llu: %s\n", static_cast<unsigned long long>(i),
                   e.what());
    }
    outcome.op_ms.push_back(ms_since(op_start));
    if (!ok) ++outcome.failed;
  }
  outcome.correct &= outcome.failed == 0;
  return outcome;
}

// ---------------------------------------------------------------------------
// serve_ivfpq
// ---------------------------------------------------------------------------
//
// The settings and their sources:
//   20,000 rows x 64 dims, k 10, 500 ms deadline: bench/bench_serve_load.cpp
//   (the generator behind BENCH_serve_load.json).
//   The embedding: `v2v_tool embed graph.txt --dims=64` (README), so the
//   library defaults of 10 walks of length 80 per vertex and 5 epochs.
//   The index: `convert --quantize=pq:16 --keep-floats` then
//   `serve --index=ivfpq --nprobe=16 --rerank=300` (README), cosine and
//   nlist ~sqrt(rows) by default.
//   Threads: `serve --threads=4` (docs/SERVING.md); the one-off build
//   uses as many ("build wide, serve narrow", docs/SERVING.md: codes are
//   byte-identical at any build thread count).
//   Traffic: one connection sending its next query when the previous
//   answer arrives, like the single client of the docs/SERVING.md worked
//   session. bench_serve_load's traffic, four connections at 500 qps
//   open-loop, was tried first. On a shared 4-vCPU host the run-to-run
//   spread of its median latency (quartile distance over median) was
//   0.08 over ten seeds while neighbours were quiet and 1.5 over seven
//   while they were busy: the generator then ran up to 0.3 s late and
//   requests queued.
//   Four closed-loop connections spread 0.34 over five seeds. One
//   connection spread 0.06 over ten seeds with the mean as the metric.
//   The graph: paper §III-A groups of 100 vertices (alpha 0.5, the
//   generator default, mid-range of the paper's) with 20 inter-group edges
//   per group (the paper's 200 for 10 groups), 200 groups for 20,000 rows.

constexpr std::size_t kServeGroups = 200;
constexpr EmbedParams kServeEmbed{10, 80, 64, 5};
constexpr std::size_t kPqSubspaces = 16;
constexpr std::size_t kNprobe = 16;
constexpr std::size_t kRerank = 300;
constexpr std::size_t kServeThreads = 4;
constexpr std::uint32_t kDeadlineMs = 500;
constexpr std::size_t kTopK = 10;
constexpr std::size_t kCheckQueries = 512;
constexpr double kWarmupSeconds = 0.5;
/// IVF-PQ answers must overlap the exact top-10 at least this much.
constexpr double kMinRecall = 0.9;
/// The quantized snapshot, written to and removed from the working
/// directory.
constexpr const char* kSnapshotPath = "serve_ivfpq.v2v";

graph::PlantedPartitionParams serve_graph_params() {
  graph::PlantedPartitionParams params;
  params.groups = kServeGroups;
  params.inter_edges = 20 * kServeGroups;
  return params;
}

/// `v2v_query_tool convert --quantize=pq:16 --keep-floats`: trains the
/// IVF-PQ index over the embedding and writes it with the float rows.
void write_snapshot(const embed::Embedding& embedding, LayerSamples& layers) {
  const auto build_start = Clock::now();
  store::SnapshotBuilder builder(embedding.vertex_count(), embedding.dimensions());
  builder.set_float_matrix(store::EmbeddingView::of(embedding));
  index::IvfPqConfig config;
  config.m = kPqSubspaces;
  config.threads = kServeThreads;
  const index::IvfPqIndex ivfpq(store::EmbeddingView::of(embedding),
                                index::DistanceMetric::kCosine, config);
  ivfpq.save_sections(builder);
  layers.index_build_ms.push_back(ms_since(build_start));
  builder.write(kSnapshotPath);
}

/// Removes the snapshot file when the workload ends, however it ends.
struct SnapshotFile {
  ~SnapshotFile() { std::remove(kSnapshotPath); }
};

/// A running service over the mapped snapshot. Members are destroyed
/// bottom-up: the server stops (draining its queue) before the engine,
/// the index and the mapping go away.
struct Service {
  store::MappedSnapshot snapshot;
  std::unique_ptr<index::IvfPqIndex> index;
  std::unique_ptr<index::QueryEngine> engine;
  std::unique_ptr<serve::Server> server;
};

/// `v2v_query_tool serve --index=ivfpq --nprobe=16 --rerank=300
/// --threads=4 --port=...` start-up: map and validate the snapshot, load
/// the index from it, warm the engine up and start listening.
std::unique_ptr<Service> start_service() {
  auto service = std::make_unique<Service>(
      Service{store::MappedSnapshot::open(kSnapshotPath), {}, {}, {}});
  index::IvfPqConfig config;
  config.nprobe = kNprobe;
  config.rerank = kRerank;
  config.threads = kServeThreads;
  service->index = index::IvfPqIndex::from_snapshot(service->snapshot, config);
  service->engine = std::make_unique<index::QueryEngine>(
      *service->index, index::QueryEngineConfig{.threads = kServeThreads,
                                                .metrics = nullptr});
  service->engine->warmup();
  service->server = std::make_unique<serve::Server>(*service->engine);
  return service;
}

struct LoopTally {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t self_misses = 0;  ///< answers not listing the query vertex
};

/// Closed loop over one connection: the next query goes out when the
/// previous answer arrives, until `seconds` have passed. Query vertices
/// come from `seed`.
LoopTally closed_loop(const Service& service, const embed::Embedding& embedding,
                      std::uint64_t seed, double seconds) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  Rng rng(seed);
  auto client = serve::Client::connect(service.server->host(), service.server->port());
  LoopTally tally;
  while (Clock::now() < deadline) {
    const auto v = static_cast<std::uint32_t>(rng.next_below(embedding.vertex_count()));
    ++tally.attempted;
    const auto start = Clock::now();
    const serve::QueryResponse response =
        client.query(embedding.vector(v), kTopK, kDeadlineMs);
    tally.latency_ms.push_back(ms_since(start));
    if (response.status != serve::RequestStatus::kOk) {
      ++tally.failed;
      continue;
    }
    const bool listed =
        std::any_of(response.neighbors.begin(), response.neighbors.end(),
                    [v](const index::Neighbor& n) { return n.id == v; });
    if (!listed) ++tally.self_misses;
  }
  return tally;
}

bool same_answer(const std::vector<index::Neighbor>& a,
                 const std::vector<index::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].distance, &b[i].distance, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Served answers must equal direct engine answers bit for bit and reach
/// kMinRecall against the exact FlatIndex.
bool check_service(const Service& service, const embed::Embedding& embedding,
                   std::uint64_t seed) {
  Rng rng(mix(seed, 200));
  auto client = serve::Client::connect(service.server->host(), service.server->port());
  const index::FlatIndex exact(store::EmbeddingView::of(embedding),
                               index::DistanceMetric::kCosine);
  std::size_t mismatches = 0;
  std::size_t overlap = 0;
  for (std::size_t q = 0; q < kCheckQueries; ++q) {
    const auto row = embedding.vector(rng.next_below(embedding.vertex_count()));
    const serve::QueryResponse served = client.query(row, kTopK);
    const std::vector<index::Neighbor> direct = service.engine->query(row, kTopK);
    if (served.status != serve::RequestStatus::kOk ||
        !same_answer(served.neighbors, direct)) {
      ++mismatches;
    }
    for (const index::Neighbor& truth : exact.search(row, kTopK)) {
      overlap += static_cast<std::size_t>(std::any_of(
          direct.begin(), direct.end(),
          [&](const index::Neighbor& n) { return n.id == truth.id; }));
    }
  }
  const double recall =
      static_cast<double>(overlap) / static_cast<double>(kCheckQueries * kTopK);
  std::fprintf(stderr, "check: %zu/%zu parity mismatches, recall@%zu %.4f\n",
               mismatches, kCheckQueries, kTopK, recall);
  return mismatches == 0 && recall >= kMinRecall;
}

Outcome run_serve_ivfpq(std::uint64_t seed, double seconds, bool trace) {
  Rng rng(seed);
  const EdgeListInput input = make_input(serve_graph_params(), rng);

  // The embedding and its quantized snapshot are made once, like the model
  // file a service loads; set-up is the service starting from that file.
  Outcome outcome;
  const graph::Graph g = load_graph(input);
  const embed::Embedding embedding = learn(g, kServeEmbed, mix(seed, 3), outcome.layers);
  const SnapshotFile snapshot_file;
  write_snapshot(embedding, outcome.layers);
  std::unique_ptr<Service> service;
  outcome.setup_seconds = repeat_setup([&] {
    service.reset();  // stop the previous repetition's server first
    const auto start = Clock::now();
    service = start_service();
    return ms_since(start) / 1e3;
  });

  closed_loop(*service, embedding, mix(seed, 4), kWarmupSeconds);
  LoopTally tally = closed_loop(*service, embedding, mix(seed, 5), seconds);
  outcome.op_ms = std::move(tally.latency_ms);
  outcome.attempted = tally.attempted;
  outcome.failed = tally.failed;

  // Rerank restores the query vertex itself to its answer almost always.
  const double miss_rate =
      static_cast<double>(tally.self_misses) / static_cast<double>(tally.attempted);
  std::fprintf(stderr, "loop: %llu queries, %llu failed, self-miss rate %.5f\n",
               static_cast<unsigned long long>(tally.attempted),
               static_cast<unsigned long long>(tally.failed), miss_rate);
  outcome.correct = tally.failed == 0 && miss_rate <= 0.01 &&
                    check_service(*service, embedding, seed);

  if (trace) {
    Rng pick(mix(seed, 300));
    for (std::size_t q = 0; q < 4 * kCheckQueries; ++q) {
      const auto row = embedding.vector(pick.next_below(embedding.vertex_count()));
      const auto query_start = Clock::now();
      const std::vector<index::Neighbor> answer = service->engine->query(row, kTopK);
      outcome.layers.search_us.push_back(ms_since(query_start) * 1e3);
      if (answer.size() != kTopK) outcome.correct = false;
    }
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have[1] = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
      args.trace = value == "1";
      have[3] = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]) || args.seconds <= 0.0) {
    throw std::invalid_argument(
        "usage: v2v_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Outcome outcome;
    if (args.workload == "embed_planted") {
      outcome = run_embed_planted(args.seed, args.seconds);
    } else if (args.workload == "serve_ivfpq") {
      outcome = run_serve_ivfpq(args.seed, args.seconds, args.trace);
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    print_result(outcome, args.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "v2v_perfbench: %s\n", e.what());
    return 1;
  }
}
