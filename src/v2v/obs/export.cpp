#include "v2v/obs/export.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace v2v::obs {

namespace {

// --------------------------------------------------------------------------
// Serialization
// --------------------------------------------------------------------------

void append_escaped(std::string& out, std::string_view text) {
  out += '"';
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g",
                std::numeric_limits<double>::max_digits10, value);
  out += buf;
}

void append_number(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
}

void append_stage(std::string& out, const StageSnapshot& stage) {
  out += "{\"name\":";
  append_escaped(out, stage.name);
  out += ",\"seconds\":";
  append_number(out, stage.seconds);
  out += ",\"calls\":";
  append_number(out, stage.calls);
  out += ",\"children\":[";
  for (std::size_t i = 0; i < stage.children.size(); ++i) {
    if (i > 0) out += ',';
    append_stage(out, stage.children[i]);
  }
  out += "]}";
}

template <typename Map, typename Fn>
void append_object(std::string& out, const Map& map, Fn&& append_value) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, name);
    out += ':';
    append_value(out, value);
  }
  out += '}';
}

void append_histogram(std::string& out, const HistogramSnapshot& hist) {
  out += "{\"count\":";
  append_number(out, hist.count);
  out += ",\"sum\":";
  append_number(out, hist.sum);
  out += ",\"min\":";
  append_number(out, hist.min);
  out += ",\"max\":";
  append_number(out, hist.max);
  out += ",\"mean\":";
  append_number(out, hist.mean);
  out += ",\"p50\":";
  append_number(out, hist.p50);
  out += ",\"p95\":";
  append_number(out, hist.p95);
  out += ",\"p99\":";
  append_number(out, hist.p99);
  out += ",\"bucket_min\":";
  append_number(out, hist.config.min);
  out += ",\"bucket_max\":";
  append_number(out, hist.config.max);
  out += ",\"buckets\":[";
  for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
    if (i > 0) out += ',';
    append_number(out, hist.buckets[i]);
  }
  out += "]}";
}

// --------------------------------------------------------------------------
// Parsing
// --------------------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at offset " + std::to_string(pos_) +
                             ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char ch) {
    if (peek() != ch) fail(std::string("expected '") + ch + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    // Containers recurse one frame per nesting level, so attacker-sized
    // nesting ("[[[[...") means attacker-sized native stack. The serve
    // HTTP shim feeds this parser network bytes; cap the depth well above
    // any legitimate metrics/query document. Found by the fuzz lane
    // (fuzz/fuzz_protocol.cpp).
    if (depth_ >= kMaxDepth) fail("nesting deeper than 128 levels");
    const char ch = peek();
    switch (ch) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue value;
        value.type = JsonValue::Type::kString;
        value.string = parse_string();
        return value;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue value;
    value.type = JsonValue::Type::kBool;
    value.boolean = b;
    return value;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if ((ch >= '0' && ch <= '9') || ch == '-' || ch == '+' || ch == '.' ||
          ch == 'e' || ch == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number '" + token + "'");
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.number = parsed;
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') return out;
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char hex = text_[pos_++];
            code <<= 4;
            if (hex >= '0' && hex <= '9') {
              code |= static_cast<unsigned>(hex - '0');
            } else if (hex >= 'a' && hex <= 'f') {
              code |= static_cast<unsigned>(hex - 'a' + 10);
            } else if (hex >= 'A' && hex <= 'F') {
              code |= static_cast<unsigned>(hex - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else {
            // Non-ASCII escapes are rare in metric names; keep them
            // readable rather than implementing full UTF-16 decoding.
            // Backslash, 'u', up to 8 hex digits of an unsigned, NUL.
            char buf[2 + 2 * sizeof(unsigned) + 1];
            std::snprintf(buf, sizeof(buf), "\\u%04x", code);
            out += buf;
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_array() {
    expect('[');
    ++depth_;
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return value;
    }
    while (true) {
      value.array.push_back(parse_value());
      const char ch = peek();
      if (ch == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      --depth_;
      return value;
    }
  }

  JsonValue parse_object() {
    expect('{');
    ++depth_;
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return value;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      expect(':');
      value.object.emplace(std::move(key), parse_value());
      const char ch = peek();
      if (ch == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      --depth_;
      return value;
    }
  }

  static constexpr std::size_t kMaxDepth = 128;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

std::string to_json(const MetricsRegistry::Snapshot& snapshot) {
  std::string out;
  out.reserve(1024);
  out += "{\"schema\":\"v2v.metrics.v1\",\"counters\":";
  append_object(out, snapshot.counters,
                [](std::string& s, std::uint64_t v) { append_number(s, v); });
  out += ",\"gauges\":";
  append_object(out, snapshot.gauges,
                [](std::string& s, double v) { append_number(s, v); });
  out += ",\"histograms\":";
  append_object(out, snapshot.histograms,
                [](std::string& s, const HistogramSnapshot& h) {
                  append_histogram(s, h);
                });
  out += ",\"series\":";
  append_object(out, snapshot.series,
                [](std::string& s, const std::vector<double>& values) {
                  s += '[';
                  for (std::size_t i = 0; i < values.size(); ++i) {
                    if (i > 0) s += ',';
                    append_number(s, values[i]);
                  }
                  s += ']';
                });
  out += ",\"stages\":";
  append_stage(out, snapshot.stages);
  out += "}";
  return out;
}

std::string to_json(const MetricsRegistry& registry) {
  return to_json(registry.snapshot());
}

void write_json_file(const MetricsRegistry& registry, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("metrics export: cannot open " + path);
  out << to_json(registry) << '\n';
}

}  // namespace v2v::obs
