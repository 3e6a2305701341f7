// NUMA topology detection and placement helpers for the training drivers.
//
// On multi-socket hosts the Hogwild trainer and the k-means assignment
// engine are memory-bandwidth bound; letting workers float across sockets
// makes most accesses remote. This layer provides the placement tools the
// pipelines use:
//
//   - Topology: which cpus belong to which NUMA node. Detected through
//     libnuma when it was found at configure time (V2V_HAVE_LIBNUMA),
//     through /sys/devices/system/node otherwise, with a single-node
//     fallback everywhere else (non-Linux, sysfs unavailable).
//   - schedule(): a thread_pool NumaSchedule with one home range per node
//     plus best-effort worker pinning (k-means).
//   - worker_schedule(): one home range per worker, worker w pinned to
//     node node_of_worker(w, W, N) = floor(w*N/W) (the Hogwild trainer).
//     Both are purely locality hints: chunk geometry is unchanged, so
//     results are bit-identical to the default single-queue handout.
//   - first_touch_stripes(): re-places a freshly zero-initialized buffer
//     so node n's stripe is first-touched (hence allocated) on node n.
//
// Environment overrides (read once, at first system_topology() call):
//   V2V_NUMA=0            disable entirely (single-node behaviour)
//   V2V_NUMA_FAKE_NODES=n pretend the host has n nodes with no cpu lists
//                         (no pinning) — how the multi-queue scheduling
//                         path is exercised in tests and parity benches
//                         on single-node machines.
#pragma once

#include <cstddef>
#include <vector>

#include "v2v/common/thread_pool.hpp"

namespace v2v::numa {

struct Topology {
  /// cpu ids per node; a node's list may be empty (synthetic topologies),
  /// in which case no pinning happens for that node.
  std::vector<std::vector<int>> node_cpus;
  /// True when the topology came from V2V_NUMA_FAKE_NODES rather than the
  /// hardware: scheduling uses it, pinning and page placement are no-ops.
  bool synthetic = false;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return node_cpus.empty() ? 1 : node_cpus.size();
  }
  [[nodiscard]] bool multi_node() const noexcept { return node_count() > 1; }
};

/// Detects the host topology (env overrides applied). Never throws: any
/// detection failure degrades to a single-node topology.
[[nodiscard]] Topology detect_topology();

/// Cached detect_topology() result (detection reads sysfs; callers probe
/// this per training run).
[[nodiscard]] const Topology& system_topology();

/// Node preferring chunk `chunk` of `chunks` under the contiguous split
/// the node-preferring queue uses (node n owns an equal contiguous slice
/// of chunk indices).
[[nodiscard]] std::size_t node_of_chunk(std::size_t chunk, std::size_t chunks,
                                        std::size_t nodes) noexcept;

/// Best-effort: pins the calling thread to `node`'s cpus. No-op when the
/// node has no cpu list (synthetic topology) or the platform lacks
/// sched_setaffinity; failures are ignored (pinning is advisory).
void bind_current_thread(const Topology& topo, std::size_t node) noexcept;

/// Node that worker `worker` of `workers` is pinned to under
/// worker_schedule(): floor(worker * nodes / workers), which splits the
/// workers into `nodes` contiguous groups whose sizes differ by at most one.
[[nodiscard]] std::size_t node_of_worker(std::size_t worker, std::size_t workers,
                                         std::size_t nodes) noexcept;

/// Builds the parallel_for_dynamic schedule for `topo`: per-node chunk
/// queues plus a bind_worker hook pinning each worker to its home node.
/// For a single-node topology the schedule degrades to the default queue.
[[nodiscard]] NumaSchedule schedule(const Topology& topo);

/// schedule(system_topology()).
[[nodiscard]] NumaSchedule schedule();

/// Builds the per-worker schedule for `workers` threads: one contiguous
/// home range of chunks per worker (as word2vec splits its training file
/// per thread), so concurrent workers start far apart in the chunk order.
/// On a multi-node (non-synthetic) topology the bind_worker hook pins
/// worker w to node node_of_worker(w, workers, node count).
[[nodiscard]] NumaSchedule worker_schedule(const Topology& topo, std::size_t workers);

/// worker_schedule(system_topology(), workers).
[[nodiscard]] NumaSchedule worker_schedule(std::size_t workers);

/// Re-places a freshly *zero-initialized* buffer across nodes: the page-
/// aligned interior is discarded (MADV_DONTNEED — contents must be all
/// zeroes, and read as zeroes after) and re-faulted in `topo.node_count()`
/// contiguous stripes, each first-touched from a thread bound to its
/// node, so the kernel allocates stripe n's pages on node n. Call between
/// allocating a shared matrix and filling it with values (the fill
/// rewrites values in place; the pages stay put). No-op on single-node
/// topologies and non-Linux platforms.
void first_touch_stripes(void* base, std::size_t bytes, const Topology& topo);

}  // namespace v2v::numa
