#include "v2v/common/numa.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#include <sys/mman.h>
#include <unistd.h>
#endif

#if defined(V2V_HAVE_LIBNUMA)
#include <numa.h>
#endif

namespace v2v::numa {
namespace {

/// Parses a sysfs cpulist ("0-3,8,10-11") into cpu ids; malformed input
/// yields what was parsed so far (detection is best-effort).
std::vector<int> parse_cpulist(const std::string& text) {
  std::vector<int> cpus;
  std::size_t i = 0;
  while (i < text.size()) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) break;
    std::size_t consumed = 0;
    int lo = std::stoi(text.substr(i), &consumed);
    i += consumed;
    int hi = lo;
    if (i < text.size() && text[i] == '-') {
      ++i;
      if (i >= text.size() || !std::isdigit(static_cast<unsigned char>(text[i]))) break;
      hi = std::stoi(text.substr(i), &consumed);
      i += consumed;
    }
    for (int cpu = lo; cpu <= hi; ++cpu) cpus.push_back(cpu);
    if (i < text.size() && text[i] == ',') ++i;
  }
  return cpus;
}

#if defined(V2V_HAVE_LIBNUMA)
bool detect_libnuma(Topology& topo) {
  if (::numa_available() < 0) return false;
  const int max_node = ::numa_max_node();
  if (max_node < 0) return false;
  struct bitmask* mask = ::numa_allocate_cpumask();
  if (mask == nullptr) return false;
  for (int n = 0; n <= max_node; ++n) {
    if (::numa_bitmask_isbitset(::numa_nodes_ptr, static_cast<unsigned>(n)) == 0) {
      continue;  // sparse node ids: skip holes
    }
    std::vector<int> cpus;
    if (::numa_node_to_cpus(n, mask) == 0) {
      for (unsigned cpu = 0; cpu < mask->size; ++cpu) {
        if (::numa_bitmask_isbitset(mask, cpu) != 0) {
          cpus.push_back(static_cast<int>(cpu));
        }
      }
    }
    topo.node_cpus.push_back(std::move(cpus));
  }
  ::numa_free_cpumask(mask);
  return !topo.node_cpus.empty();
}
#endif

bool detect_sysfs(Topology& topo) {
#if defined(__linux__)
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path root("/sys/devices/system/node");
  if (!fs::is_directory(root, ec)) return false;
  // Node ids can be sparse; collect then sort so node order is stable.
  std::vector<std::pair<int, std::vector<int>>> nodes;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("node", 0) != 0 || name.size() <= 4) continue;
    if (!std::all_of(name.begin() + 4, name.end(), [](char c) {
          return std::isdigit(static_cast<unsigned char>(c)) != 0;
        })) {
      continue;
    }
    std::ifstream in(entry.path() / "cpulist");
    if (!in) continue;
    std::string line;
    std::getline(in, line);
    nodes.emplace_back(std::stoi(name.substr(4)), parse_cpulist(line));
  }
  if (ec || nodes.empty()) return false;
  std::sort(nodes.begin(), nodes.end());
  for (auto& [id, cpus] : nodes) topo.node_cpus.push_back(std::move(cpus));
  return true;
#else
  (void)topo;
  return false;
#endif
}

Topology single_node() {
  Topology topo;
  topo.node_cpus.resize(1);
  return topo;
}

}  // namespace

Topology detect_topology() {
  if (const char* env = std::getenv("V2V_NUMA");
      env != nullptr && std::string(env) == "0") {
    return single_node();
  }
  if (const char* env = std::getenv("V2V_NUMA_FAKE_NODES"); env != nullptr) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && n > 0 && n <= 1024) {
      Topology topo;
      topo.node_cpus.resize(static_cast<std::size_t>(n));
      topo.synthetic = true;
      return topo;
    }
  }
  Topology topo;
#if defined(V2V_HAVE_LIBNUMA)
  if (detect_libnuma(topo)) return topo;
  topo.node_cpus.clear();
#endif
  if (detect_sysfs(topo)) return topo;
  return single_node();
}

const Topology& system_topology() {
  static const Topology topo = detect_topology();
  return topo;
}

std::size_t node_of_chunk(std::size_t chunk, std::size_t chunks,
                          std::size_t nodes) noexcept {
  if (chunks == 0 || nodes <= 1) return 0;
  return chunk * nodes / chunks;  // inverse of range_begin(n) = ceil(n*chunks/nodes)
}

std::size_t node_of_worker(std::size_t worker, std::size_t workers,
                           std::size_t nodes) noexcept {
  if (workers == 0 || nodes <= 1) return 0;
  return worker * nodes / workers;
}

void bind_current_thread(const Topology& topo, std::size_t node) noexcept {
#if defined(__linux__)
  if (node >= topo.node_cpus.size()) return;
  const auto& cpus = topo.node_cpus[node];
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  bool any = false;
  for (const int cpu : cpus) {
    if (cpu >= 0 && cpu < CPU_SETSIZE) {
      CPU_SET(cpu, &set);
      any = true;
    }
  }
  if (any) (void)::sched_setaffinity(0, sizeof(set), &set);
#else
  (void)topo;
  (void)node;
#endif
}

NumaSchedule schedule(const Topology& topo) {
  NumaSchedule s;
  s.ranges = topo.node_count();
  if (s.ranges > 1 && !topo.synthetic) {
    // Copy the topology: the schedule may outlive the caller's reference.
    s.bind_worker = [topo](std::size_t /*worker*/, std::size_t home) {
      bind_current_thread(topo, home);
    };
  }
  return s;
}

NumaSchedule schedule() { return schedule(system_topology()); }

NumaSchedule worker_schedule(const Topology& topo, std::size_t workers) {
  NumaSchedule s;
  s.ranges = std::max<std::size_t>(1, workers);
  const std::size_t nodes = topo.node_count();
  if (nodes > 1 && !topo.synthetic) {
    s.bind_worker = [topo, ranges = s.ranges, nodes](std::size_t worker,
                                                     std::size_t /*home*/) {
      bind_current_thread(topo, node_of_worker(worker, ranges, nodes));
    };
  }
  return s;
}

NumaSchedule worker_schedule(std::size_t workers) {
  return worker_schedule(system_topology(), workers);
}

void first_touch_stripes(void* base, std::size_t bytes, const Topology& topo) {
#if defined(__linux__)
  const std::size_t nodes = topo.node_count();
  if (nodes <= 1 || base == nullptr || bytes == 0) return;
  const long page_long = ::sysconf(_SC_PAGESIZE);
  if (page_long <= 0) return;
  const auto page = static_cast<std::size_t>(page_long);
  // Only the page-aligned interior can be re-placed; edge pages may be
  // shared with neighbouring allocations and must keep their backing.
  const auto addr = reinterpret_cast<std::uintptr_t>(base);
  const std::uintptr_t lo = (addr + page - 1) & ~(page - 1);
  const std::uintptr_t hi = (addr + bytes) & ~(page - 1);
  if (hi <= lo) return;
  const std::size_t pages = (hi - lo) / page;
  // The buffer is all zeroes by contract, so dropping the pages loses
  // nothing: they read back as zero and re-fault on the touching thread.
  if (::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED) != 0) {
    return;  // e.g. locked memory; placement stays as-is
  }
  std::vector<std::thread> touchers;
  touchers.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    const std::size_t first = n * pages / nodes;
    const std::size_t last = (n + 1) * pages / nodes;
    if (first >= last) continue;
    touchers.emplace_back([&topo, n, lo, page, first, last] {
      bind_current_thread(topo, n);
      for (std::size_t p = first; p < last; ++p) {
        auto* byte = reinterpret_cast<volatile char*>(lo + p * page);
        *byte = 0;
      }
    });
  }
  for (auto& t : touchers) t.join();
#else
  (void)base;
  (void)bytes;
  (void)topo;
#endif
}

}  // namespace v2v::numa
