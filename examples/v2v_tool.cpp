// v2v_tool: command-line front end to the whole library, operating on
// plain edge-list files. This is the "I just want embeddings for my
// graph" entry point.
//
//   v2v_tool embed <edges.txt> --output=vectors.txt [--dims=50] [--directed]
//            [--config=saved.cfg] [--save-config=out.cfg]
//            [--save-snapshot=model.v2v]   (resume-capable v3 snapshot)
//            [--corpus-spool=<dir>]        (out-of-core walk corpus)
//   v2v_tool refresh <model.v2v> <edges.txt> <deltas.txt> --output=new.v2v
//            [--save-edges=new_edges.txt] [--full-retrain]
//            [--refresh-epochs=2] [--refresh-lr=x] [--epochs=N]
//            [--corpus-spool=<dir>]        (out-of-core walk corpus)
//   v2v_tool communities <edges.txt> [--k=10] [--auto-k] [--threads=N]
//            [--method=v2v|cnm|gn|louvain|lp]
//   v2v_tool predict <vectors.txt> <labels.txt> [--k=3] [--folds=10]
//   v2v_tool nearest <vectors.txt> <vertex> [--k=5]
//   v2v_tool layout <edges.txt> --output=graph.svg [--iterations=200]
//   v2v_tool stats <edges.txt> [--directed]
//
// refresh applies an edge-delta file ("a u v [w [ts]]" / "d u v" lines)
// to the graph the snapshot was trained on and continues SGD from the
// persisted optimizer state (dynamic::RefreshSession); --full-retrain is
// the cold-start escape hatch. <edges.txt> must list the original edges
// in their original order so the rebuilt CSR is bit-identical.
//
// Every pipeline command accepts --metrics-out=<file>.json to write a
// machine-readable metrics sidecar (stage timings, walks/sec, words/sec;
// schema v2v.metrics.v1 — see README "Observability").
//
// Unknown flags are a hard error (exit 2). Edge lists are
// "u v [weight [timestamp]]" lines, '#' comments. Label files are
// "vertex label" lines with integer labels.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <string>

#include "v2v/common/cli.hpp"
#include "v2v/common/string_util.hpp"
#include "v2v/community/cnm.hpp"
#include "v2v/community/girvan_newman.hpp"
#include "v2v/community/label_propagation.hpp"
#include "v2v/community/louvain.hpp"
#include "v2v/community/modularity.hpp"
#include "v2v/core/config_io.hpp"
#include "v2v/core/v2v.hpp"
#include "v2v/dynamic/delta_io.hpp"
#include "v2v/dynamic/refresh.hpp"
#include "v2v/graph/algorithms.hpp"
#include "v2v/graph/io.hpp"
#include "v2v/graph/labels_io.hpp"
#include "v2v/graph/structure.hpp"
#include "v2v/index/embedding_queries.hpp"
#include "v2v/obs/export.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/store/embedding_view.hpp"
#include "v2v/store/snapshot.hpp"
#include "v2v/store/trainer_state.hpp"
#include "v2v/viz/svg.hpp"

namespace {

using namespace v2v;

/// Writes the run's metrics sidecar when --metrics-out was given.
void maybe_write_metrics(const CliArgs& args, const obs::MetricsRegistry& registry) {
  const std::string path = args.metrics_out();
  if (path.empty()) return;
  obs::write_json_file(registry, path);
  std::fprintf(stderr, "wrote metrics sidecar %s\n", path.c_str());
}

graph::Graph load_graph(const std::string& path, const CliArgs& args) {
  graph::EdgeListOptions options;
  options.directed = args.get_bool("directed");
  return graph::read_edge_list_file(path, options);
}

V2VConfig config_from_args(const CliArgs& args) {
  V2VConfig config;
  if (args.has("config")) config = load_config_file(args.get("config", ""));
  config.train.dimensions = args.get_size("dims", config.train.dimensions);
  config.walk.walks_per_vertex = args.get_size("walks", config.walk.walks_per_vertex);
  config.walk.walk_length = args.get_size("walk-length", config.walk.walk_length);
  config.train.epochs = args.get_size("epochs", config.train.epochs);
  config.seed = static_cast<std::uint64_t>(args.get_int(
      "seed", static_cast<std::int64_t>(config.seed)));
  if (args.get_bool("temporal")) config.walk.temporal = true;
  // --corpus-spool=<dir>: stream walks to disk segments and train from
  // the mmap'd spool (out-of-core path; same results, O(buffer) RSS).
  if (args.has("corpus-spool")) {
    config.walk.spool_dir = args.get("corpus-spool", "");
  }
  // --threads feeds every stage that doesn't already have an explicit
  // count from a config file (walk/train/kmeans all default to 1).
  if (args.has("threads")) {
    const std::size_t threads = args.get_size("threads", 1);
    if (config.walk.threads <= 1) config.walk.threads = threads;
    if (config.train.threads <= 1) config.train.threads = threads;
    if (config.kmeans.threads <= 1) config.kmeans.threads = threads;
  }
  return config;
}

/// Writes a resume-capable (v3) snapshot: float matrix + trainer state.
void write_checkpoint_snapshot(const std::string& path,
                               const embed::Embedding& embedding,
                               const embed::TrainerCheckpoint& checkpoint) {
  store::SnapshotBuilder builder(embedding.vertex_count(),
                                 embedding.dimensions());
  builder.set_float_matrix(store::EmbeddingView::of(embedding));
  store::add_trainer_state(builder, checkpoint);
  builder.write(path);
}

int cmd_embed(const CliArgs& args) {
  const auto& input = args.positional().at(1);
  const graph::Graph g = load_graph(input, args);
  std::fprintf(stderr, "loaded %s\n", graph::describe(g).c_str());

  obs::MetricsRegistry metrics;
  V2VConfig config = config_from_args(args);
  config.metrics = &metrics;
  const std::string snapshot_path = args.get("save-snapshot", "");
  if (!snapshot_path.empty()) config.train.capture_checkpoint = true;
  if (args.has("save-config")) save_config_file(config, args.get("save-config", ""));
  const auto model = learn_embedding(g, config);
  std::fprintf(stderr, "trained %zu x %zu in %.2fs (%zu walks, %zu tokens)\n",
               model.embedding.vertex_count(), model.embedding.dimensions(),
               model.learn_seconds(), model.corpus_walks, model.corpus_tokens);

  const std::string output = args.get("output", "vectors.txt");
  model.embedding.save_text_file(output);
  std::fprintf(stderr, "wrote %s\n", output.c_str());
  if (!snapshot_path.empty()) {
    if (!model.checkpoint) {
      std::fprintf(stderr, "error: trainer produced no checkpoint\n");
      return 1;
    }
    write_checkpoint_snapshot(snapshot_path, model.embedding, *model.checkpoint);
    std::fprintf(stderr, "wrote resume-capable snapshot %s\n",
                 snapshot_path.c_str());
  }
  maybe_write_metrics(args, metrics);
  return 0;
}

int cmd_refresh(const CliArgs& args) {
  const auto& snapshot_path = args.positional().at(1);
  const auto& edges_path = args.positional().at(2);
  const auto& deltas_path = args.positional().at(3);
  const std::string output = args.get("output", "");
  if (output.empty()) {
    std::fprintf(stderr, "error: refresh requires --output=<snapshot>\n");
    return 2;
  }

  const auto snap = store::MappedSnapshot::open(snapshot_path);
  if (!snap.has_floats()) {
    std::fprintf(stderr, "error: %s carries no float matrix\n",
                 snapshot_path.c_str());
    return 2;
  }
  if (!store::has_trainer_state(snap)) {
    std::fprintf(stderr,
                 "error: %s is not resume-capable (no trainer state);\n"
                 "       re-embed with: v2v_tool embed <edges> "
                 "--save-snapshot=<file>\n",
                 snapshot_path.c_str());
    return 2;
  }
  auto checkpoint = store::load_trainer_state(snap);

  // Materialize the mmapped matrix: the session mutates it in place.
  const auto view = snap.float_view();
  MatrixF warm(view.rows(), view.dimensions());
  for (std::size_t r = 0; r < view.rows(); ++r) {
    const auto row = view.row(r);
    std::copy(row.begin(), row.end(), warm.row(r).begin());
  }
  embed::Embedding embedding{std::move(warm)};

  const std::size_t threads = args.get_size("threads", 1);
  walk::WalkConfig walk_config;
  walk_config.walks_per_vertex = checkpoint.walks_per_vertex;
  walk_config.walk_length = checkpoint.walk_length;
  walk_config.threads = threads;
  // Spool the refreshed corpus to disk and train off it instead of RAM.
  walk_config.spool_dir = args.get("corpus-spool", "");
  embed::TrainConfig train_config;
  train_config.dimensions = checkpoint.dimensions;
  train_config.window = checkpoint.window;
  train_config.negative = checkpoint.negative;
  train_config.architecture = checkpoint.architecture;
  train_config.objective = checkpoint.objective;
  train_config.initial_lr = checkpoint.initial_lr;
  train_config.min_lr_fraction = checkpoint.min_lr_fraction;
  train_config.subsample = checkpoint.subsample;
  train_config.seed = checkpoint.seed;
  train_config.epochs = args.get_size("epochs", 10);
  train_config.threads = threads;

  dynamic::RefreshTuning tuning;
  tuning.epochs = args.get_size("refresh-epochs", 2);
  tuning.initial_lr = args.get_double("refresh-lr", 0.0);

  dynamic::DynamicGraph graph(args.get_bool("directed"), tuning.graph_config());
  const auto records = dynamic::read_edge_records_file(edges_path);
  for (const auto& e : records) {
    graph.add_edge(e.u, e.v, e.weight, e.timestamp);
  }
  std::fprintf(stderr, "loaded %zu edges, checkpoint round %llu\n",
               records.size(),
               static_cast<unsigned long long>(checkpoint.refresh_rounds));

  obs::MetricsRegistry metrics;
  dynamic::RefreshSession session(std::move(graph), std::move(embedding),
                                  std::move(checkpoint), walk_config,
                                  train_config, tuning, &metrics);
  const auto deltas = dynamic::read_delta_file(deltas_path);
  const std::size_t applied = session.apply(std::span<const dynamic::EdgeDelta>(deltas));
  std::fprintf(stderr, "applied %zu/%zu deltas\n", applied, deltas.size());

  const auto stats =
      args.get_bool("full-retrain") ? session.full_retrain() : session.refresh();
  std::fprintf(stderr, "%s: %zu dirty vertices, %.2fs walks + %.2fs training\n",
               stats.full_retrain ? "full retrain" : "refresh",
               stats.dirty_vertices, stats.walk_seconds, stats.train_seconds);

  write_checkpoint_snapshot(output, session.embedding(), session.checkpoint());
  std::fprintf(stderr, "wrote resume-capable snapshot %s\n", output.c_str());
  if (args.has("save-edges")) {
    const auto live = session.graph().live_edges();
    dynamic::write_edge_records_file(
        std::span<const dynamic::LiveEdge>(live), args.get("save-edges", ""));
    std::fprintf(stderr, "wrote %zu edges to %s\n", live.size(),
                 args.get("save-edges", "").c_str());
  }
  maybe_write_metrics(args, metrics);
  return 0;
}

int cmd_communities(const CliArgs& args) {
  const auto& input = args.positional().at(1);
  const graph::Graph g = load_graph(input, args);
  const std::size_t k = args.get_size("k", 10);
  const std::string method = args.get("method", "v2v");

  obs::MetricsRegistry metrics;
  std::vector<std::uint32_t> labels;
  if (method == "v2v") {
    V2VConfig config = config_from_args(args);
    config.metrics = &metrics;
    const auto model = learn_embedding(g, config);
    if (args.get_bool("auto-k")) {
      const auto result =
          detect_communities_auto(model.embedding, 2, k, config.kmeans, &metrics);
      std::fprintf(stderr, "auto-selected k = %zu (silhouette)\n", result.chosen_k);
      labels = result.detection.labels;
    } else {
      labels = detect_communities(model.embedding, k, config.kmeans, &metrics).labels;
    }
  } else if (method == "cnm") {
    labels = community::cluster_cnm(g).labels;
  } else if (method == "gn") {
    community::GirvanNewmanConfig gn;
    gn.patience = g.edge_count() / 4;
    labels = community::cluster_girvan_newman(g, gn).labels;
  } else if (method == "louvain") {
    labels = community::cluster_louvain(g).labels;
  } else if (method == "lp") {
    labels = community::cluster_label_propagation(g).labels;
  } else {
    std::fprintf(stderr, "unknown --method '%s'\n", method.c_str());
    return 2;
  }
  if (!g.directed()) {
    std::fprintf(stderr, "modularity: %.4f\n", community::modularity(g, labels));
  }
  for (std::size_t v = 0; v < labels.size(); ++v) {
    std::printf("%zu\t%u\n", v, labels[v]);
  }
  maybe_write_metrics(args, metrics);
  return 0;
}

int cmd_predict(const CliArgs& args) {
  const auto embedding = embed::Embedding::load_text_file(args.positional().at(1));
  const auto labels =
      graph::read_labels_file(args.positional().at(2), embedding.vertex_count());
  const std::size_t k = args.get_size("k", 3);
  const std::size_t folds = args.get_size("folds", 10);
  const std::size_t repeats = args.get_size("repeats", 3);
  obs::MetricsRegistry metrics;
  LabelPredictionResult result;
  {
    const obs::ScopedTimer span(metrics, "predict");
    result = evaluate_label_prediction(embedding, labels, k, folds, repeats);
  }
  metrics.counter("predict.predictions").add(result.predictions);
  std::printf("k-NN accuracy (k=%zu, %zu-fold CV x %zu): %.4f +/- %.4f\n", k, folds,
              repeats, result.accuracy, result.stddev);
  maybe_write_metrics(args, metrics);
  return 0;
}

int cmd_nearest(const CliArgs& args) {
  const auto embedding = embed::Embedding::load_text_file(args.positional().at(1));
  const auto vertex = parse_int(args.positional().at(2));
  if (!vertex || *vertex < 0 ||
      static_cast<std::size_t>(*vertex) >= embedding.vertex_count()) {
    std::fprintf(stderr, "bad vertex id\n");
    return 2;
  }
  const std::size_t k = args.get_size("k", 5);
  for (const auto u : index::nearest(embedding, static_cast<std::size_t>(*vertex), k)) {
    std::printf("%u\t%.4f\n", u,
                embedding.cosine_similarity(static_cast<std::size_t>(*vertex), u));
  }
  return 0;
}

int cmd_layout(const CliArgs& args) {
  const graph::Graph g = load_graph(args.positional().at(1), args);
  viz::ForceAtlas2Config config;
  config.iterations = args.get_size("iterations", 200);
  const auto layout = viz::layout_forceatlas2(g, config);
  viz::SvgOptions svg;
  svg.draw_edges = true;
  svg.title = args.positional().at(1);
  const std::string output = args.get("output", "graph.svg");
  viz::write_graph_svg(output, g, layout.positions, {}, svg);
  std::fprintf(stderr, "wrote %s\n", output.c_str());
  return 0;
}

int cmd_stats(const CliArgs& args) {
  const graph::Graph g = load_graph(args.positional().at(1), args);
  std::printf("%s\n", graph::describe(g).c_str());
  const auto degrees = graph::degree_stats(g);
  std::printf("degree: min %zu, mean %.2f, max %zu\n", degrees.min, degrees.mean,
              degrees.max);
  std::printf("connected components: %zu\n", graph::connected_components(g).count);
  if (!g.directed()) {
    std::printf("triangles: %llu\n",
                static_cast<unsigned long long>(graph::triangle_count(g)));
    std::printf("average clustering: %.4f\n", graph::average_clustering(g));
    std::printf("transitivity: %.4f\n", graph::transitivity(g));
    std::printf("degeneracy (max k-core): %u\n", graph::degeneracy(g));
  }
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: v2v_tool <embed|refresh|communities|predict|nearest|"
               "layout|stats> <args...>\n"
               "       (see the header of examples/v2v_tool.cpp)\n"
               "       unknown flags are a hard error (exit 2)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.positional().empty()) {
    usage();
    return 2;
  }
  const std::string& command = args.positional()[0];
  const auto run = [&](std::initializer_list<std::string_view> known,
                       int (*cmd)(const CliArgs&)) {
    if (args.check_flags(known)) return cmd(args);
    usage();
    return 2;
  };
  try {
    const std::size_t n = args.positional().size();
    if (command == "embed" && n >= 2) {
      return run({"config", "dims", "walks", "walk-length", "epochs", "seed",
                  "temporal", "threads", "directed", "metrics-out", "output",
                  "save-config", "save-snapshot", "corpus-spool"},
                 cmd_embed);
    }
    if (command == "refresh" && n >= 4) {
      return run({"output", "save-edges", "full-retrain", "refresh-epochs",
                  "refresh-lr", "epochs", "threads", "directed", "metrics-out",
                  "corpus-spool"},
                 cmd_refresh);
    }
    if (command == "communities" && n >= 2) {
      return run({"config", "dims", "walks", "walk-length", "epochs", "seed",
                  "temporal", "threads", "directed", "metrics-out", "k",
                  "auto-k", "method"},
                 cmd_communities);
    }
    if (command == "predict" && n >= 3) {
      return run({"k", "folds", "repeats", "metrics-out"}, cmd_predict);
    }
    if (command == "nearest" && n >= 3) return run({"k"}, cmd_nearest);
    if (command == "layout" && n >= 2) {
      return run({"output", "iterations", "directed"}, cmd_layout);
    }
    if (command == "stats" && n >= 2) return run({"directed"}, cmd_stats);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
