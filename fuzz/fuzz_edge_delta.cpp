// Fuzz harness for the edge-delta text parser (dynamic/delta_io.hpp):
// parse_deltas is the boundary where `v2v_tool refresh` takes untrusted
// mutation files, so arbitrary bytes must either parse or throw the typed
// std::runtime_error the CLI reports — never UB.
//
// Invariants on accept:
//   - parse(encode(parsed)) == parsed: the encoder is a lossless
//     canonicalizer for everything the parser admits (%.17g weights,
//     optional timestamp column, default-weight elision);
//   - encode is a fixed point on its own output;
//   - the accepted deltas can be applied (endpoints clamped to a small
//     vertex range) to a DynamicGraph, whose compact() returns a CSR
//     with the graph's edge and vertex counts: the parser's
//     weight/endpoint validation is exactly GraphBuilder's contract, so
//     nothing admitted may blow up graph construction.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "v2v/dynamic/delta_io.hpp"
#include "v2v/dynamic/dynamic_graph.hpp"

// assert() is compiled out in RelWithDebInfo (NDEBUG); the invariants here
// must survive optimized fuzzing builds.
#define FUZZ_CHECK(cond) \
  do {                   \
    if (!(cond)) __builtin_trap(); \
  } while (0)

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);

  std::vector<v2v::dynamic::EdgeDelta> parsed;
  try {
    parsed = v2v::dynamic::parse_deltas(text);
  } catch (const std::runtime_error&) {
    return 0;  // typed rejection is the contract
  }

  const std::string canonical =
      v2v::dynamic::encode_deltas(std::span<const v2v::dynamic::EdgeDelta>(parsed));
  std::vector<v2v::dynamic::EdgeDelta> reparsed;
  try {
    reparsed = v2v::dynamic::parse_deltas(canonical);
  } catch (const std::runtime_error&) {
    FUZZ_CHECK(false);  // the encoder emitted something the parser rejects
  }
  FUZZ_CHECK(reparsed == parsed);
  FUZZ_CHECK(v2v::dynamic::encode_deltas(
                 std::span<const v2v::dynamic::EdgeDelta>(reparsed)) ==
             canonical);

  // Anything the parser admits must be applicable: clamp endpoints into a
  // small range (vertex ids are otherwise attacker-sized allocations) and
  // drive a DynamicGraph through apply + compact.
  constexpr std::size_t kMaxApplied = 256;
  constexpr v2v::graph::VertexId kVertexRange = 1024;
  std::vector<v2v::dynamic::EdgeDelta> capped;
  capped.reserve(parsed.size() < kMaxApplied ? parsed.size() : kMaxApplied);
  for (const auto& d : parsed) {
    if (capped.size() == kMaxApplied) break;
    auto clamped = d;
    clamped.u %= kVertexRange;
    clamped.v %= kVertexRange;
    capped.push_back(clamped);
  }
  v2v::dynamic::DynamicGraph g(false);
  (void)g.apply(std::span<const v2v::dynamic::EdgeDelta>(capped));
  const v2v::graph::Graph csr = g.compact();
  FUZZ_CHECK(csr.edge_count() == g.edge_count());
  FUZZ_CHECK(csr.vertex_count() == g.vertex_count());
  return 0;
}
