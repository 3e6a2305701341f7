#include "v2v/common/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <system_error>

#include "v2v/common/string_util.hpp"

namespace v2v {

CliArgs::CliArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      flags_[std::string(arg)] = argv[++i];
    } else {
      flags_[std::string(arg)] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string CliArgs::get(const std::string& name, const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const auto value = parse_int(it->second);
  if (!value) throw std::invalid_argument("--" + name + " expects an integer");
  return *value;
}

std::size_t CliArgs::get_size(const std::string& name, std::size_t fallback,
                              std::size_t max) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string_view text = trim(it->second);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc{} || ptr != text.data() + text.size() ||
      value > max) {
    throw std::invalid_argument("--" + name + " expects an integer in [0, " +
                                std::to_string(max) + "], got '" + it->second + "'");
  }
  return static_cast<std::size_t>(value);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const auto value = parse_double(it->second);
  if (!value) throw std::invalid_argument("--" + name + " expects a number");
  return *value;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::int64_t> CliArgs::get_int_list(
    const std::string& name, const std::vector<std::int64_t>& fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  std::vector<std::int64_t> out;
  for (const auto piece : split(it->second, ',')) {
    const auto value = parse_int(piece);
    if (!value) throw std::invalid_argument("--" + name + " expects integers");
    out.push_back(*value);
  }
  return out;
}

std::vector<std::string> CliArgs::unknown_flags(
    std::initializer_list<std::string_view> known) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : flags_) {
    bool found = false;
    for (const std::string_view k : known) {
      if (name == k) {
        found = true;
        break;
      }
    }
    if (!found) unknown.push_back(name);
  }
  return unknown;  // flags_ is an ordered map, so this is sorted
}

bool CliArgs::check_flags(std::initializer_list<std::string_view> known) const {
  const auto unknown = unknown_flags(known);
  for (const auto& flag : unknown) {
    std::fprintf(stderr, "error: unknown flag --%s\n", flag.c_str());
  }
  return unknown.empty();
}

bool CliArgs::full_scale() const {
  if (get_bool("full")) return true;
  const char* env = std::getenv("V2V_FULL");
  return env != nullptr && std::string_view(env) == "1";
}

std::string CliArgs::metrics_out() const {
  if (has("metrics-out")) return get("metrics-out", "");
  const char* env = std::getenv("V2V_METRICS_OUT");
  return env != nullptr ? std::string(env) : std::string();
}

}  // namespace v2v
