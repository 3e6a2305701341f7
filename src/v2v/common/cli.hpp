// Tiny declarative flag parser shared by the bench/example binaries.
// Supports --name=value, --name value, and boolean --name. The experiment
// harnesses also honor V2V_FULL=1 in the environment (paper-scale runs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace v2v {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// Non-negative count, duration or port. Throws std::invalid_argument
  /// naming the flag and the range [0, max] unless the value is a decimal
  /// integer in that range (so --threads=-1 is an error, not 2^64 - 1).
  [[nodiscard]] std::size_t get_size(const std::string& name, std::size_t fallback,
                                     std::size_t max = SIZE_MAX) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback = false) const;

  /// Comma-separated integer list, e.g. --dims=20,50,100.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, const std::vector<std::int64_t>& fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// True if --full was passed or V2V_FULL=1 is set: run paper-scale sizes.
  [[nodiscard]] bool full_scale() const;

  /// Flags present on the command line but absent from `known`, sorted.
  /// Tools that promise strict parsing call this after dispatching a
  /// subcommand and treat a non-empty result as a hard usage error — a
  /// typo like --nprob silently ignored is a misconfigured server.
  [[nodiscard]] std::vector<std::string> unknown_flags(
      std::initializer_list<std::string_view> known) const;

  /// Strict-parsing gate for a subcommand: prints "error: unknown flag
  /// --<name>" to stderr for each unknown_flags(known) entry and returns
  /// false if there was any (the tool then prints its usage and exits 2).
  [[nodiscard]] bool check_flags(std::initializer_list<std::string_view> known) const;

  /// Path given via --metrics-out <file>.json (or the V2V_METRICS_OUT
  /// environment variable): where the run should write its JSON metrics
  /// sidecar (schema v2v.metrics.v1, see README "Observability"). Empty
  /// string when unset = metrics export disabled.
  [[nodiscard]] std::string metrics_out() const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace v2v
