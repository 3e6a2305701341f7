// The shared main() of the google-benchmark suites that also write a
// baseline sidecar ($V2V_BENCH_OUT/BENCH_*.json).
//
// --benchmark_list_tests only prints the suite's names: it neither runs
// the baseline measurement nor overwrites the sidecar.
#pragma once

#include <benchmark/benchmark.h>

// google-benchmark defines its flags in the library but declares only
// some of them in benchmark.h; this one is read after Initialize() has
// parsed argv (and the BENCHMARK_LIST_TESTS environment default).
namespace benchmark {
extern bool FLAGS_benchmark_list_tests;
}  // namespace benchmark

namespace v2v::bench {

/// Parses google-benchmark's flags, runs the registered suite unless
/// `skip_suite`, then calls `write_baseline` — except under
/// --benchmark_list_tests, which lists the suite and skips both the suite
/// and the baseline. Returns main()'s exit status.
inline int micro_bench_main(int argc, char** argv, void (*write_baseline)(),
                            bool skip_suite = false) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const bool list_only = benchmark::FLAGS_benchmark_list_tests;
  if (list_only || !skip_suite) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!list_only) write_baseline();
  return 0;
}

}  // namespace v2v::bench
