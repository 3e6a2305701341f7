// v2v_query_tool: the serving-side companion to v2v_tool, operating on
// binary embedding snapshots (see docs/ARCHITECTURE.md "Embedding store"
// and docs/SERVING.md for the full serve-mode operator guide).
//
//   v2v_query_tool convert <vectors.txt> <out.v2vsnap> [--quantize=...]
//   v2v_query_tool export  <in.v2vsnap> <vectors.txt>
//   v2v_query_tool info    <in.v2vsnap>
//   v2v_query_tool serve   <in.v2vsnap> [index/engine flags] [server flags]
//
// `convert --quantize=sq8|pq[:m]` trains the quantizer while converting
// and writes a v2 sectioned snapshot carrying the codes; without
// --keep-floats the float matrix is dropped entirely, so the serving
// footprint is the quantized payload alone. `info` lists every section
// with its checksum. `serve --index=sq8|ivfpq` loads such a snapshot
// zero-copy (codes served straight from the mapping, no float matrix in
// RAM) or quantizes float snapshots on the fly.
//
// `serve` memory-maps the snapshot (zero-copy; --no-mmap forces the
// buffered fallback), builds the requested index, and is a thin launcher
// over the serve/ library: with --port it runs the concurrent network
// server (binary V2Q1 protocol + HTTP shim) until SIGINT/SIGTERM, then
// drains gracefully; without --port it answers one query per input line
// ("id x1 ... xd" or "x1 ... xd") from --queries or stdin, routed through
// the same batching admission queue so both modes share one code path.
// --metrics-out=<file>.json writes the serving metrics sidecar (admission
// and latency histograms, query counts, ivf build stats; schema
// v2v.metrics.v1).
//
// Unknown flags are a hard error (exit 2): a typo like --nprob silently
// ignored would mean serving at default settings while believing
// otherwise.
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "v2v/common/cli.hpp"
#include "v2v/embed/embedding.hpp"
#include "v2v/index/flat_index.hpp"
#include "v2v/index/ivf_index.hpp"
#include "v2v/index/query_engine.hpp"
#include "v2v/obs/export.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/serve/batch_queue.hpp"
#include "v2v/serve/server.hpp"
#include "v2v/store/snapshot.hpp"
#include "v2v/store/trainer_state.hpp"

namespace {

using namespace v2v;

std::atomic<bool> g_stop{false};

void handle_stop_signal(int) { g_stop.store(true, std::memory_order_release); }

void maybe_write_metrics(const CliArgs& args, const obs::MetricsRegistry& registry) {
  const std::string path = args.metrics_out();
  if (path.empty()) return;
  obs::write_json_file(registry, path);
  std::fprintf(stderr, "wrote metrics sidecar %s\n", path.c_str());
}

index::DistanceMetric metric_from(const CliArgs& args) {
  const std::string name = args.get("metric", "cosine");
  if (name == "cosine") return index::DistanceMetric::kCosine;
  if (name == "l2" || name == "euclidean") return index::DistanceMetric::kEuclidean;
  throw std::invalid_argument("--metric=" + name +
                              " (expected cosine, l2 or euclidean)");
}

/// m of `--quantize=pq:<m>`: an integer in [1, dims], parsed as strictly
/// as CliArgs::get_size parses its flags.
std::size_t pq_subspaces(const std::string& text, std::size_t dims) {
  std::uint64_t m = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), m);
  if (ec != std::errc{} || ptr != text.data() + text.size() || m < 1 || m > dims) {
    throw std::invalid_argument("--quantize=pq:<m> expects an integer m in [1, " +
                                std::to_string(dims) + "], got '" + text + "'");
  }
  return static_cast<std::size_t>(m);
}

int cmd_convert(const CliArgs& args) {
  const auto& out = args.positional()[2];
  const std::string quantize = args.get("quantize", "");
  if (quantize.empty()) {
    for (const char* flag : {"metric", "nlist", "build-threads", "keep-floats"}) {
      if (args.has(flag)) {
        std::fprintf(stderr,
                     "warning: --%s has no effect without --quantize\n", flag);
      }
    }
    store::convert_text_to_snapshot(args.positional()[1], out);
    const auto h = store::EmbeddingStore::read_header(out);
    std::printf("wrote %s: %llu rows x %llu dims\n", out.c_str(),
                static_cast<unsigned long long>(h.rows),
                static_cast<unsigned long long>(h.dims));
    return 0;
  }

  const auto emb = embed::Embedding::load_text_file(args.positional()[1]);
  const auto metric = metric_from(args);
  const std::size_t threads = args.get_size("build-threads", 1);
  store::SnapshotBuilder builder(emb.vertex_count(), emb.dimensions());
  if (args.get_bool("keep-floats")) {
    builder.set_float_matrix(store::EmbeddingView::of(emb));
  }

  index::IvfConfig config;
  config.threads = threads;
  if (quantize == "sq8") {
    config.codec = index::IvfCodec::kSq8;
    config.nlist = 1;  // an SQ8 snapshot is one list in id order
  } else if (quantize == "pq" || quantize.rfind("pq:", 0) == 0) {
    config.codec = index::IvfCodec::kPq;
    if (quantize != "pq") config.m = pq_subspaces(quantize.substr(3), emb.dimensions());
    config.nlist = args.get_size("nlist", 0);
  } else {
    std::fprintf(stderr,
                 "error: --quantize=%s (expected sq8, pq, or pq:<m>)\n",
                 quantize.c_str());
    return 2;
  }
  const index::IvfIndex quantized(store::EmbeddingView::of(emb), metric, config);
  quantized.save_sections(builder);
  const double bytes_per_vector = quantized.bytes_per_vector();
  builder.write(out);
  std::printf("wrote %s: %llu rows x %llu dims, %s quantized "
              "(%.1f bytes/vector%s)\n",
              out.c_str(), static_cast<unsigned long long>(emb.vertex_count()),
              static_cast<unsigned long long>(emb.dimensions()),
              quantize.c_str(), bytes_per_vector,
              args.get_bool("keep-floats") ? ", floats kept for rerank" : "");
  return 0;
}

int cmd_export(const CliArgs& args) {
  store::convert_snapshot_to_text(args.positional()[1], args.positional()[2]);
  std::printf("wrote %s\n", args.positional()[2].c_str());
  return 0;
}

int cmd_info(const CliArgs& args) {
  const auto& path = args.positional()[1];
  const auto snap = store::MappedSnapshot::open(path);
  const auto& h = snap.header();
  std::printf("snapshot      %s\n", path.c_str());
  std::printf("version       %u\n", h.version);
  std::printf("rows          %llu\n", static_cast<unsigned long long>(h.rows));
  std::printf("dims          %llu\n", static_cast<unsigned long long>(h.dims));
  std::printf("row_stride    %llu floats\n",
              static_cast<unsigned long long>(h.row_stride));
  std::printf("data_offset   %llu\n", static_cast<unsigned long long>(h.data_offset));
  std::printf("data_bytes    %llu\n", static_cast<unsigned long long>(h.data_bytes));
  std::printf("data_checksum %016llx\n",
              static_cast<unsigned long long>(h.data_checksum));
  std::printf("sections      %zu (checksums verified on open)\n",
              snap.sections().size());
  std::uint64_t float_bytes = 0, quant_bytes = 0, trainer_bytes = 0;
  for (const auto& s : snap.sections()) {
    const char* kind = store::section_kind(s.name);
    std::printf("  %-8s %12llu bytes  %016llx  %s\n", s.name.c_str(),
                static_cast<unsigned long long>(s.bytes),
                static_cast<unsigned long long>(s.checksum), kind);
    if (s.name == "fmat") {
      float_bytes += s.bytes;
    } else if (std::string_view(kind) == "optimizer state") {
      trainer_bytes += s.bytes;
    } else {
      quant_bytes += s.bytes;
    }
  }
  const auto rows = std::max<std::size_t>(1, snap.rows());
  if (float_bytes > 0) {
    std::printf("float bytes/vector      %.1f\n",
                static_cast<double>(float_bytes) / static_cast<double>(rows));
  }
  if (quant_bytes > 0) {
    std::printf("quantized bytes/vector  %.1f\n",
                static_cast<double>(quant_bytes) / static_cast<double>(rows));
  }
  std::printf("trainer state           %s (%llu bytes)\n",
              store::has_trainer_state(snap) ? "present (resume-capable)"
                                             : "absent",
              static_cast<unsigned long long>(trainer_bytes));
  return 0;
}

/// Parses "x1 ... xd" or "id x1 ... xd" (one extra leading token) into a
/// d-dimensional query; returns false on malformed input.
bool parse_query(const std::string& line, std::size_t dims,
                 std::vector<float>& query) {
  std::istringstream in(line);
  std::vector<float> values;
  float x = 0.0f;
  while (in >> x) values.push_back(x);
  if (values.size() == dims + 1) values.erase(values.begin());
  if (values.size() != dims) return false;
  query = std::move(values);
  return true;
}

serve::BatchQueueConfig batch_config_from(const CliArgs& args,
                                          obs::MetricsRegistry& metrics) {
  serve::BatchQueueConfig config;
  config.max_batch = args.get_size("batch", 64);
  config.queue_capacity = args.get_size("queue", 4096);
  // Capped at 2^32 - 1, the range of the wire protocol's per-request
  // deadline_ms.
  config.default_deadline = std::chrono::milliseconds(
      args.get_size("deadline-ms", 1000, std::numeric_limits<std::uint32_t>::max()));
  config.metrics = &metrics;
  return config;
}

/// Network mode: serve until SIGINT/SIGTERM, then drain gracefully.
int serve_network(const CliArgs& args, const index::QueryEngine& engine,
                  obs::MetricsRegistry& metrics) {
  serve::ServerConfig config;
  config.host = args.get("host", "127.0.0.1");
  config.port = static_cast<std::uint16_t>(
      args.get_size("port", 0, std::numeric_limits<std::uint16_t>::max()));
  config.max_connections = args.get_size("max-conns", 256);
  config.batch = batch_config_from(args, metrics);
  config.metrics = &metrics;
  serve::Server server(engine, config);
  std::fprintf(stderr,
               "listening on %s:%u (binary V2Q1 + HTTP: POST /query, GET "
               "/stats, GET /healthz); Ctrl-C drains and exits\n",
               server.host().c_str(), server.port());

  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  while (!g_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "signal received: draining in-flight requests\n");
  server.stop();
  const auto snap = metrics.snapshot();
  const auto counter = [&](const char* name) -> unsigned long long {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0ULL : it->second;
  };
  std::fprintf(stderr,
               "drained: %llu requests served (%llu timeouts, %llu "
               "rejected overload), shutdown clean\n",
               counter("serve.requests"), counter("serve.timeouts"),
               counter("serve.rejected_queue_full"));
  return 0;
}

/// Offline mode: one query per input line, still routed through the
/// batching admission queue (a bounded window of in-flight futures keeps
/// batches full while output order stays line order).
int serve_offline(const CliArgs& args, const index::QueryEngine& engine,
                  obs::MetricsRegistry& metrics, std::istream& in,
                  std::size_t dims, std::size_t k) {
  serve::BatchQueue queue(engine, batch_config_from(args, metrics));

  std::deque<std::future<serve::SubmitResult>> window;
  std::size_t answered = 0, malformed = 0, failed = 0;
  const auto drain_one = [&] {
    auto result = window.front().get();
    window.pop_front();
    if (result.status != serve::RequestStatus::kOk) {
      std::fprintf(stderr, "query failed: %s\n",
                   serve::request_status_name(result.status));
      ++failed;
      std::printf("\n");
      return;
    }
    for (std::size_t i = 0; i < result.neighbors.size(); ++i) {
      std::printf("%s%u:%.6g", i == 0 ? "" : " ", result.neighbors[i].id,
                  result.neighbors[i].distance);
    }
    std::printf("\n");
    ++answered;
  };

  std::string line;
  std::vector<float> query;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (!parse_query(line, dims, query)) {
      std::fprintf(stderr, "skipping malformed query line: %s\n", line.c_str());
      ++malformed;
      continue;
    }
    window.push_back(queue.submit(query, k));
    if (window.size() >= 512) drain_one();
  }
  while (!window.empty()) drain_one();
  queue.shutdown();
  std::fprintf(stderr, "answered %zu queries (%zu malformed, %zu failed)\n",
               answered, malformed, failed);
  return malformed == 0 && failed == 0 ? 0 : 1;
}

int cmd_serve(const CliArgs& args) {
  const auto& path = args.positional()[1];
  const std::string kind = args.get("index", "flat");
  if (kind != "flat" && kind != "ivf" && kind != "sq8" && kind != "ivfpq") {
    throw std::invalid_argument("--index=" + kind +
                                " (expected flat, ivf, sq8 or ivfpq)");
  }
  obs::MetricsRegistry metrics;

  const auto mode = args.get_bool("no-mmap")
                        ? store::MappedSnapshot::MapMode::kBuffered
                        : store::MappedSnapshot::MapMode::kAuto;
  const auto mapped = store::MappedSnapshot::open(path, mode);
  std::fprintf(stderr, "serving %s: %zu rows x %zu dims (%s, %zu sections%s)\n",
               path.c_str(), mapped.rows(), mapped.dimensions(),
               mapped.zero_copy() ? "zero-copy mmap" : "buffered",
               mapped.sections().size(),
               mapped.has_floats() ? "" : ", no float matrix");

  const auto metric = metric_from(args);
  const std::size_t threads = args.get_size("threads", 1);
  const std::size_t k = args.get_size("k", 10);
  const std::size_t rerank = args.get_size("rerank", 0);
  // --build-threads overrides --threads for one-off index builds only
  // (use all cores to build, few to serve); it never affects query
  // results or serving parallelism.
  const std::size_t build_threads = args.get_size("build-threads", threads);

  const auto require_floats = [&](const char* what) {
    if (!mapped.has_floats()) {
      throw std::runtime_error(
          std::string("snapshot carries no float matrix; ") + what);
    }
  };
  const auto warn_stored_metric = [&](index::DistanceMetric stored) {
    if (args.has("metric") && stored != metric) {
      std::fprintf(stderr,
                   "warning: --metric ignored; quantized snapshot was built "
                   "with the other metric\n");
    }
  };
  if (rerank > 0 && !mapped.has_floats()) {
    std::fprintf(stderr,
                 "warning: --rerank needs the snapshot's float matrix "
                 "(re-convert with --keep-floats); rerank disabled\n");
  }

  std::unique_ptr<index::VectorIndex> idx;
  if (kind == "flat") {
    // Flags for other index kinds with --index=flat mean a
    // misconfiguration worth flagging (they would be silently inert).
    for (const char* flag : {"nlist", "nprobe", "build-threads", "rerank"}) {
      if (args.has(flag)) {
        std::fprintf(stderr,
                     "warning: --%s has no effect with --index=flat "
                     "(flat is exact; it has no build step or probe knob)\n",
                     flag);
      }
    }
    require_floats("--index=flat needs float rows (use sq8/ivfpq)");
    idx = std::make_unique<index::FlatIndex>(mapped.float_view(), metric);
  } else {
    index::IvfConfig config;
    config.codec = kind == "sq8"     ? index::IvfCodec::kSq8
                   : kind == "ivfpq" ? index::IvfCodec::kPq
                                     : index::IvfCodec::kFloat;
    // An SQ8 snapshot is one list in id order; sq8 builds match it.
    config.nlist = kind == "sq8" ? 1 : args.get_size("nlist", 0);
    config.nprobe = args.get_size("nprobe", 8);
    config.rerank = rerank;
    config.threads = build_threads;
    config.metrics = &metrics;
    const char* codes = kind == "sq8" ? "sq8c" : "pqcd";
    if (kind != "ivf" && mapped.has_section(codes)) {
      auto loaded = index::IvfIndex::from_snapshot(mapped, config);
      warn_stored_metric(loaded->metric());
      idx = std::move(loaded);
    } else {
      require_floats(kind == "ivf"
                         ? "--index=ivf needs float rows (use sq8/ivfpq)"
                         : "--index=sq8|ivfpq needs float rows or a "
                           "pre-quantized snapshot (convert --quantize=sq8|pq)");
      idx = std::make_unique<index::IvfIndex>(mapped.float_view(), metric,
                                              config);
    }
  }
  const index::QueryEngine engine(*idx, {.threads = threads, .metrics = &metrics});
  engine.warmup();

  int rc = 0;
  if (args.has("port")) {
    rc = serve_network(args, engine, metrics);
  } else {
    std::ifstream query_file;
    const std::string query_path = args.get("queries", "");
    if (!query_path.empty()) {
      query_file.open(query_path);
      if (!query_file) {
        std::fprintf(stderr, "error: cannot open %s\n", query_path.c_str());
        return 1;
      }
    }
    std::istream& in = query_path.empty() ? std::cin : query_file;
    rc = serve_offline(args, engine, metrics, in, mapped.dimensions(), k);
  }
  maybe_write_metrics(args, metrics);
  return rc;
}

void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  v2v_query_tool convert <vectors.txt> <out.v2vsnap> [convert flags]\n"
      "  v2v_query_tool export  <in.v2vsnap> <vectors.txt>\n"
      "  v2v_query_tool info    <in.v2vsnap>\n"
      "  v2v_query_tool serve   <in.v2vsnap> [flags]\n"
      "\n"
      "convert flags:\n"
      "  --quantize=sq8|pq[:m] also train + store quantized codes: sq8 = one\n"
      "                       byte/dim scalar codes, pq[:m] = IVF-PQ with m\n"
      "                       bytes/vector, 1 <= m <= dims (default 8)\n"
      "  --keep-floats        keep the float matrix alongside the codes (for\n"
      "                       exact rerank); default drops it — the snapshot\n"
      "                       then serves with no float matrix in RAM\n"
      "  --metric=cosine|l2   metric the quantizer is trained for (cosine)\n"
      "  --nlist=N            IVF-PQ partitions; 0 = ~sqrt(rows)\n"
      "  --build-threads=N    training/encoding threads (default 1; codes are\n"
      "                       byte-identical at any thread count)\n"
      "\n"
      "serve index/engine flags:\n"
      "  --index=flat|ivf|sq8|ivfpq\n"
      "                       flat = exact scan (default); ivf = approximate;\n"
      "                       sq8/ivfpq = quantized (loads pre-quantized\n"
      "                       sections zero-copy, else quantizes on the fly);\n"
      "                       any other name exits 1\n"
      "  --metric=cosine|l2   distance metric (default cosine; pre-quantized\n"
      "                       snapshots carry their own)\n"
      "  --threads=N          QueryEngine workers for batch fan-out (default 1)\n"
      "  --nlist=N            IVF/IVF-PQ partitions; 0 = ~sqrt(rows)\n"
      "  --nprobe=N           IVF/IVF-PQ lists scanned per query (higher =\n"
      "                       better recall, lower QPS; default 8)\n"
      "  --rerank=N           ivf/sq8/ivfpq: re-score top-N candidates against\n"
      "                       the float matrix exactly (needs floats; 0 off)\n"
      "  --build-threads=N    threads for one-off index builds only\n"
      "                       (defaults to --threads; never changes results or\n"
      "                       serving parallelism — build wide, serve narrow)\n"
      "  --no-mmap            force the buffered snapshot read\n"
      "\n"
      "serve server flags (docs/SERVING.md):\n"
      "  --port=P             listen on P (0 = ephemeral); omit for offline\n"
      "                       stdin/--queries mode\n"
      "  --host=H             bind address (default 127.0.0.1)\n"
      "  --batch=N            max requests coalesced per engine batch, >= 1\n"
      "                       (64); a batch is whatever queued while the\n"
      "                       engine was busy, never a timed wait\n"
      "  --queue=N            admission queue bound; beyond it requests are\n"
      "                       rejected with overloaded + Retry-After (4096)\n"
      "  --deadline-ms=N      default per-request deadline; 0 disables (1000)\n"
      "  --max-conns=N        live TCP connection bound (256)\n"
      "\n"
      "offline-mode flags:\n"
      "  --k=N                neighbors per query (default 10)\n"
      "  --queries=file       read query lines from file instead of stdin\n"
      "\n"
      "common:\n"
      "  --metrics-out=f.json write the v2v.metrics.v1 serving sidecar\n"
      "\n"
      "unknown flags are a hard error (exit 2).\n");
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto run = [&](std::initializer_list<std::string_view> known,
                       int (*cmd)(const CliArgs&)) {
    if (args.check_flags(known)) return cmd(args);
    usage();
    return 2;
  };
  try {
    const auto& pos = args.positional();
    const std::string command = pos.empty() ? "" : pos[0];
    if (command == "convert" && pos.size() >= 3) {
      return run({"quantize", "keep-floats", "metric", "nlist", "build-threads"},
                 cmd_convert);
    }
    if (command == "export" && pos.size() >= 3) return run({}, cmd_export);
    if (command == "info" && pos.size() >= 2) return run({}, cmd_info);
    if (command == "serve" && pos.size() >= 2) {
      return run({"index", "metric", "k", "nlist", "nprobe", "rerank", "threads",
                  "build-threads", "queries", "no-mmap", "metrics-out", "port",
                  "host", "batch", "queue", "deadline-ms", "max-conns"},
                 cmd_serve);
    }
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
