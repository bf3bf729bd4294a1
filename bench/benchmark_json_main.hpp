// Shared main() body for google-benchmark binaries that default their
// --benchmark_out to a committed BENCH_*.json (update_time, solve_time), so
// the default-injection logic lives once. Header-only on purpose: these
// binaries link covstream + benchmark, not covstream_bench_common, and
// bench_common must stay buildable without google-benchmark installed.
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "hash/simd/cpu_features.hpp"

namespace covstream::bench {

/// Runs the registered benchmarks, emitting machine-readable results to
/// `default_json_name` unless the caller passed --benchmark_out — so the
/// perf trajectory is tracked PR over PR by default, and an explicit path
/// wins. Note "--benchmark_out_format" alone must NOT suppress the default
/// path: only an explicit --benchmark_out does.
inline int run_benchmark_json_main(int argc, char** argv,
                                   const char* default_json_name) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = std::string("--benchmark_out=") + default_json_name;
  char fmt_flag[] = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag);
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  // Stamp the dispatched kernel tier, the compiler and whether assertions
  // were compiled out into the JSON context: numbers that differ in any of
  // them are not comparable, and tools/bench_diff.py refuses to diff files
  // whose entries disagree (google-benchmark's own num_cpus included).
  benchmark::AddCustomContext("covstream_isa", isa_name(active_isa()));
  benchmark::AddCustomContext("covstream_cpu_features",
                              cpu_features().describe());
  benchmark::AddCustomContext("covstream_compiler", __VERSION__);
#ifdef NDEBUG
  benchmark::AddCustomContext("covstream_ndebug", "true");
#else
  benchmark::AddCustomContext("covstream_ndebug", "false");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace covstream::bench
