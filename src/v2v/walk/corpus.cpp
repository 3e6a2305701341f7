#include "v2v/walk/corpus.hpp"

#include <algorithm>

namespace v2v::walk {

void Corpus::append(const Corpus& other) {
  const std::size_t base = tokens_.size();
  tokens_.insert(tokens_.end(), other.tokens_.begin(), other.tokens_.end());
  offsets_.reserve(offsets_.size() + other.walk_count());
  for (std::size_t i = 1; i < other.offsets_.size(); ++i) {
    offsets_.push_back(base + other.offsets_[i]);
  }
}

void Corpus::append(Corpus&& other) {
  // Keying the wholesale steal on the *walk* count matters: a destination
  // holding only zero-length walks has no tokens, but replacing its
  // offsets would silently drop those walks.
  if (walk_count() == 0) {
    // Wholesale steal: no copy at all for the first shard.
    tokens_ = std::move(other.tokens_);
    offsets_ = std::move(other.offsets_);
  } else {
    const std::size_t base = tokens_.size();
    tokens_.insert(tokens_.end(), std::make_move_iterator(other.tokens_.begin()),
                   std::make_move_iterator(other.tokens_.end()));
    offsets_.reserve(offsets_.size() + other.walk_count());
    for (std::size_t i = 1; i < other.offsets_.size(); ++i) {
      offsets_.push_back(base + other.offsets_[i]);
    }
  }
  // Leave the source drained but valid (empty corpus invariant: offsets = {0}).
  other.tokens_.clear();
  other.tokens_.shrink_to_fit();
  other.offsets_.assign(1, 0);
}

graph::VertexId Corpus::max_token() const noexcept {
  if (tokens_.empty()) return 0;
  return *std::max_element(tokens_.begin(), tokens_.end());
}

std::vector<std::uint64_t> Corpus::vertex_frequencies(std::size_t vocab) const {
  std::vector<std::uint64_t> freq(vocab, 0);
  for (const auto token : tokens_) {
    if (token < vocab) ++freq[token];
  }
  return freq;
}

}  // namespace v2v::walk
