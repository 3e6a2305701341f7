#include "v2v/core/config_io.hpp"

#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "v2v/common/string_util.hpp"

namespace v2v {
namespace {

const char* bias_name(walk::StepBias bias) {
  switch (bias) {
    case walk::StepBias::kUniform: return "uniform";
    case walk::StepBias::kEdgeWeight: return "edge-weight";
    case walk::StepBias::kVertexWeight: return "vertex-weight";
  }
  return "uniform";
}

walk::StepBias parse_bias(std::string_view value) {
  if (value == "uniform") return walk::StepBias::kUniform;
  if (value == "edge-weight") return walk::StepBias::kEdgeWeight;
  if (value == "vertex-weight") return walk::StepBias::kVertexWeight;
  throw std::runtime_error("config: unknown walk.bias value");
}

ml::KMeansAssign parse_assign(std::string_view value) {
  if (value == "naive") return ml::KMeansAssign::kNaive;
  if (value == "norm_cached") return ml::KMeansAssign::kNormCached;
  if (value == "hamerly") return ml::KMeansAssign::kHamerly;
  throw std::runtime_error("config: unknown kmeans.assign value");
}

}  // namespace

void save_config(const V2VConfig& config, std::ostream& out) {
  out << "# V2V configuration\n";
  out << "seed = " << config.seed << '\n';
  out << "walk.walks_per_vertex = " << config.walk.walks_per_vertex << '\n';
  out << "walk.walk_length = " << config.walk.walk_length << '\n';
  out << "walk.bias = " << bias_name(config.walk.bias) << '\n';
  out << "walk.temporal = " << (config.walk.temporal ? 1 : 0) << '\n';
  out << "walk.time_window = " << config.walk.time_window << '\n';
  out << "walk.threads = " << config.walk.threads << '\n';
  out << "walk.grain = " << config.walk.grain << '\n';
  out << "walk.streaming = " << (config.walk.streaming ? 1 : 0) << '\n';
  out << "train.dimensions = " << config.train.dimensions << '\n';
  out << "train.window = " << config.train.window << '\n';
  out << "train.architecture = "
      << (config.train.architecture == embed::Architecture::kCbow ? "cbow"
                                                                  : "skipgram")
      << '\n';
  out << "train.objective = "
      << (config.train.objective == embed::Objective::kNegativeSampling
              ? "negative-sampling"
              : "hierarchical-softmax")
      << '\n';
  out << "train.negative = " << config.train.negative << '\n';
  out << "train.epochs = " << config.train.epochs << '\n';
  out << "train.min_epochs = " << config.train.min_epochs << '\n';
  out << "train.convergence_tol = " << config.train.convergence_tol << '\n';
  out << "train.initial_lr = " << config.train.initial_lr << '\n';
  out << "train.min_lr_fraction = " << config.train.min_lr_fraction << '\n';
  out << "train.subsample = " << config.train.subsample << '\n';
  out << "train.threads = " << config.train.threads << '\n';
  out << "train.grain = " << config.train.grain << '\n';
  out << "kmeans.threads = " << config.kmeans.threads << '\n';
  out << "kmeans.restarts = " << config.kmeans.restarts << '\n';
  out << "kmeans.assign = " << ml::assign_mode_name(config.kmeans.assign) << '\n';
}

void save_config_file(const V2VConfig& config, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("config: cannot open " + path);
  save_config(config, out);
}

V2VConfig load_config(std::istream& in) {
  V2VConfig config;

  auto as_size = [](std::string_view v, std::size_t& target) {
    const auto parsed = parse_int(v);
    if (!parsed || *parsed < 0) throw std::runtime_error("config: bad integer value");
    target = static_cast<std::size_t>(*parsed);
  };
  auto as_u64 = [](std::string_view v, std::uint64_t& target) {
    const auto parsed = parse_int(v);
    if (!parsed || *parsed < 0) throw std::runtime_error("config: bad integer value");
    target = static_cast<std::uint64_t>(*parsed);
  };
  auto as_double = [](std::string_view v, double& target) {
    const auto parsed = parse_double(v);
    if (!parsed) throw std::runtime_error("config: bad numeric value");
    target = *parsed;
  };

  const std::map<std::string, std::function<void(std::string_view)>> setters{
      {"seed", [&](std::string_view v) { as_u64(v, config.seed); }},
      {"walk.walks_per_vertex",
       [&](std::string_view v) { as_size(v, config.walk.walks_per_vertex); }},
      {"walk.walk_length",
       [&](std::string_view v) { as_size(v, config.walk.walk_length); }},
      {"walk.bias",
       [&](std::string_view v) { config.walk.bias = parse_bias(v); }},
      {"walk.temporal",
       [&](std::string_view v) { config.walk.temporal = v == "1" || v == "true"; }},
      {"walk.time_window",
       [&](std::string_view v) { as_double(v, config.walk.time_window); }},
      {"walk.threads", [&](std::string_view v) { as_size(v, config.walk.threads); }},
      {"walk.grain", [&](std::string_view v) { as_size(v, config.walk.grain); }},
      {"walk.streaming",
       [&](std::string_view v) { config.walk.streaming = v == "1" || v == "true"; }},
      {"train.dimensions",
       [&](std::string_view v) { as_size(v, config.train.dimensions); }},
      {"train.window", [&](std::string_view v) { as_size(v, config.train.window); }},
      {"train.architecture",
       [&](std::string_view v) {
         if (v == "cbow") {
           config.train.architecture = embed::Architecture::kCbow;
         } else if (v == "skipgram") {
           config.train.architecture = embed::Architecture::kSkipGram;
         } else {
           throw std::runtime_error("config: unknown train.architecture");
         }
       }},
      {"train.objective",
       [&](std::string_view v) {
         if (v == "negative-sampling") {
           config.train.objective = embed::Objective::kNegativeSampling;
         } else if (v == "hierarchical-softmax") {
           config.train.objective = embed::Objective::kHierarchicalSoftmax;
         } else {
           throw std::runtime_error("config: unknown train.objective");
         }
       }},
      {"train.negative",
       [&](std::string_view v) { as_size(v, config.train.negative); }},
      {"train.epochs", [&](std::string_view v) { as_size(v, config.train.epochs); }},
      {"train.min_epochs",
       [&](std::string_view v) { as_size(v, config.train.min_epochs); }},
      {"train.convergence_tol",
       [&](std::string_view v) { as_double(v, config.train.convergence_tol); }},
      {"train.initial_lr",
       [&](std::string_view v) { as_double(v, config.train.initial_lr); }},
      {"train.min_lr_fraction",
       [&](std::string_view v) { as_double(v, config.train.min_lr_fraction); }},
      {"train.subsample",
       [&](std::string_view v) { as_double(v, config.train.subsample); }},
      {"train.threads",
       [&](std::string_view v) { as_size(v, config.train.threads); }},
      {"train.grain", [&](std::string_view v) { as_size(v, config.train.grain); }},
      {"kmeans.threads",
       [&](std::string_view v) { as_size(v, config.kmeans.threads); }},
      {"kmeans.restarts",
       [&](std::string_view v) { as_size(v, config.kmeans.restarts); }},
      {"kmeans.assign",
       [&](std::string_view v) { config.kmeans.assign = parse_assign(v); }},
  };

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    const std::string_view body =
        trim(hash == std::string::npos ? std::string_view(line)
                                       : std::string_view(line).substr(0, hash));
    if (body.empty()) continue;
    const auto eq = body.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("config line " + std::to_string(line_no) +
                               ": expected 'key = value'");
    }
    const std::string key{trim(body.substr(0, eq))};
    const std::string_view value = trim(body.substr(eq + 1));
    const auto it = setters.find(key);
    if (it == setters.end()) {
      throw std::runtime_error("config line " + std::to_string(line_no) +
                               ": unknown key '" + key + "'");
    }
    it->second(value);
  }
  return config;
}

V2VConfig load_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open " + path);
  return load_config(in);
}

}  // namespace v2v
