// Machine-readable export of a MetricsRegistry: a JSON sidecar (schema
// "v2v.metrics.v1", documented in README "Observability"). A minimal JSON
// DOM + parser is included so sidecars can be read back (round-trip
// tests, cross-run diffing) without adding a dependency.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "v2v/obs/metrics.hpp"

namespace v2v::obs {

/// Minimal JSON value: null, bool, number (all numerics as double),
/// string, array, object. Just enough to round-trip metrics sidecars.
struct JsonValue {
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool is_null() const noexcept { return type == Type::kNull; }
  [[nodiscard]] bool is_object() const noexcept { return type == Type::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return type == Type::kArray; }
  [[nodiscard]] bool is_number() const noexcept { return type == Type::kNumber; }
  [[nodiscard]] bool contains(const std::string& key) const {
    return type == Type::kObject && object.count(key) > 0;
  }
  /// Object member access; throws std::out_of_range when absent.
  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    return object.at(key);
  }
};

/// Parses one JSON document (throws std::runtime_error on malformed input
/// or trailing garbage). Numbers are doubles; \uXXXX escapes outside
/// ASCII are passed through verbatim.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Serializes a snapshot as schema "v2v.metrics.v1". Doubles are written
/// with max_digits10 precision so parse_json(to_json(x)) is exact;
/// non-finite values become null.
[[nodiscard]] std::string to_json(const MetricsRegistry::Snapshot& snapshot);
[[nodiscard]] std::string to_json(const MetricsRegistry& registry);

/// Writes to_json output to `path`; throws std::runtime_error when the
/// file cannot be opened.
void write_json_file(const MetricsRegistry& registry, const std::string& path);

}  // namespace v2v::obs
