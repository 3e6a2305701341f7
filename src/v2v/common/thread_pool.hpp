// The library's one parallel loop: a chunked work queue on one
// process-wide pool of persistent worker threads. Corpus generation,
// Hogwild SGD, k-means and its restarts, the index builds and the query
// engine's batches all run on it. The loop splits [0, count) into fixed
// grain-sized chunks that each worker drains from its own contiguous home
// range before stealing from the others, so heavy-degree vertices do not
// stall an epoch. Chunk boundaries depend only on (count, grain) — never
// on scheduling — so callers that store results per chunk index stay
// deterministic across thread counts.
#pragma once

#include <cstddef>
#include <functional>

namespace v2v {

/// Heuristic chunk size for parallel_for_dynamic: aim for ~16 chunks per
/// worker (cheap enough to rebalance, coarse enough to amortize the
/// counter), never below 1.
[[nodiscard]] std::size_t default_grain(std::size_t count, std::size_t threads) noexcept;

/// Number of chunks a dynamic loop over `count` items produces with
/// `grain` items per chunk (the final chunk may be short).
[[nodiscard]] std::size_t chunk_count(std::size_t count, std::size_t grain) noexcept;

/// Chunked work queue. Splits [0, count) into fixed chunks — chunk c
/// covers [c*grain, min((c+1)*grain, count)) — and runs them on W =
/// min(threads, chunks) workers, calling fn(worker, chunk, begin, end)
/// with worker < W; chunks that run at the same time have distinct
/// worker indices. Chunk indices are a pure function of (count, grain), so
/// per-chunk result storage is deterministic no matter how chunks land on
/// workers. grain == 0 selects default_grain(). With one worker, chunks
/// run in increasing order on the calling thread.
///
/// Handout: range r of W owns chunks [ceil(r*C/W), ceil((r+1)*C/W)) of
/// the C chunks behind its own cache-line-padded counter. Worker w drains
/// range w first (as word2vec splits its training file per thread), then
/// steals from ranges w+1, w+2, ... mod W, so concurrent workers start far
/// apart in the chunk order and share no counter until they steal.
///
/// The calling thread is worker 0; idle pool threads claim workers 1 …
/// W − 1. The call returns once every chunk has run and no pool thread is
/// still inside it, and waits for no thread busy elsewhere, so calls may
/// nest (fn may call parallel_for_dynamic) and run concurrently. If chunks
/// throw on more than one worker, every other chunk still runs and the
/// first exception is rethrown on the caller; with one worker the first
/// throw ends the loop. Starting a loop takes the pool mutex
/// (lock_rank::kThreadPool), so no loop may start while its thread holds
/// a mutex ranked above it.
void parallel_for_dynamic(
    std::size_t threads, std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t, std::size_t)>& fn);

}  // namespace v2v
