#include "v2v/embed/embedding.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "v2v/common/vec_math.hpp"

namespace v2v::embed {

double Embedding::cosine_similarity(std::size_t a, std::size_t b) const {
  return 1.0 - cosine_distance(vector(a), vector(b));
}

Embedding Embedding::normalized() const {
  Embedding copy(*this);
  for (std::size_t v = 0; v < copy.vertex_count(); ++v) {
    normalize(copy.vector(v));
  }
  return copy;
}

void Embedding::save_text(std::ostream& out) const {
  // max_digits10 digits reproduce every float exactly on read-back, so
  // save -> load -> save is idempotent (the old default 6 digits lost the
  // low bits of most mantissas).
  const auto old_precision =
      out.precision(std::numeric_limits<float>::max_digits10);
  out << vertex_count() << ' ' << dimensions() << '\n';
  for (std::size_t v = 0; v < vertex_count(); ++v) {
    out << v;
    for (const float x : vector(v)) out << ' ' << x;
    out << '\n';
  }
  out.precision(old_precision);
}

void Embedding::save_text_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Embedding: cannot open " + path);
  save_text(out);
}

Embedding Embedding::load_text(std::istream& in) {
  std::size_t n = 0, d = 0;
  if (!(in >> n >> d)) throw std::runtime_error("Embedding: bad header");
  Embedding out(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t id = 0;
    if (!(in >> id) || id >= n) throw std::runtime_error("Embedding: bad row id");
    for (std::size_t c = 0; c < d; ++c) {
      if (!(in >> out.vectors_(id, c))) throw std::runtime_error("Embedding: truncated row");
    }
  }
  return out;
}

Embedding Embedding::load_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Embedding: cannot open " + path);
  return load_text(in);
}

}  // namespace v2v::embed
