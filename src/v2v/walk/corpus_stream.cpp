#include "v2v/walk/corpus_stream.hpp"

#include <algorithm>
#include <functional>
#include <span>

#include "v2v/common/timer.hpp"
#include "v2v/obs/metrics.hpp"

namespace v2v::walk {

StreamedCorpus::StreamedCorpus(const graph::Graph& g, const WalkConfig& config,
                               std::uint64_t seed)
    : driver_(g.vertex_count(), config, seed),
      walker_(g, config),
      walk_from_(std::bind_front(&Walker::walk_from, &walker_)) {
  const obs::ScopedTimer span(config.metrics, "walk");
  // The counting pass. Frequencies accumulate per worker (u64 addition
  // commutes, so the merged table is schedule-independent); tokens are
  // vertex ids < n.
  const std::size_t n = g.vertex_count();
  std::vector<std::vector<std::uint64_t>> worker_freq(
      driver_.workers(), std::vector<std::uint64_t>(n, 0));
  driver_.run([&](const WalkChunk& chunk) {
    std::vector<std::uint64_t>& freq = worker_freq[chunk.worker];
    std::size_t tokens = 0;
    driver_.walk_chunk(walk_from_, chunk, [&](std::span<const graph::VertexId> walk) {
      for (const graph::VertexId token : walk) ++freq[token];
      tokens += walk.size();
    });
    return tokens;
  });
  freq_.assign(n, 0);
  for (const auto& counts : worker_freq) {
    for (std::size_t v = 0; v < n; ++v) freq_[v] += counts[v];
  }
  for (std::size_t v = 0; v < n; ++v) {
    tokens_ += freq_[v];
    if (freq_[v] != 0) max_token_ = static_cast<graph::VertexId>(v);
  }
}

void StreamedCorpus::for_each_walk(std::size_t begin, std::size_t end,
                                   const WalkSink& sink) const {
  driver_.walk_range(walk_from_, begin, end, sink);
}

std::vector<std::uint64_t> StreamedCorpus::vertex_frequencies(std::size_t vocab) const {
  std::vector<std::uint64_t> out(vocab, 0);
  const std::size_t n = std::min(vocab, freq_.size());
  std::copy(freq_.begin(), freq_.begin() + static_cast<std::ptrdiff_t>(n), out.begin());
  return out;
}

CorpusRun with_corpus(const graph::Graph& g, const WalkConfig& config,
                      std::uint64_t seed,
                      const std::function<void(const CorpusReader&)>& use) {
  const WallTimer timer;
  const auto hand_over = [&](const CorpusReader& corpus) {
    const CorpusRun run{corpus.walk_count(), corpus.token_count(), timer.seconds()};
    use(corpus);
    return run;
  };
  if (config.streaming) return hand_over(StreamedCorpus(g, config, seed));
  return hand_over(generate_corpus(g, config, seed));
}

}  // namespace v2v::walk
