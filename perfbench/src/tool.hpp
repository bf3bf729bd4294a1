// The two workloads, shared by the programs that run them (gen.cpp and
// run.py's kcover jobs; the load generator in wire.cpp) and their traced
// replays (trace_kcover.cpp, trace_fleet.cpp), plus the subcommand entry
// points. Every size and rate a workload uses is fixed here, so a run and
// its replay can never disagree about what they executed. `gen` prints the
// file_kcover sizes for run.py.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/params.hpp"

namespace perfbench {

/// file_kcover: `covstream_cli --cmd=kcover` over one seeded zipf file.
struct KCoverWorkload {
  ZipfShape shape{};
  std::uint32_t k = 0;
  double eps = 0.15;
  std::size_t pooled_threads = 4;  // the pooled job's --threads
};

/// `scale` is "full" (the benchmark) or "tiny" (the benchmark's own tests).
KCoverWorkload kcover_workload(const std::string& scale);

/// wire_ingest: saturated default-budget tenants, one connection each,
/// sending 64-edge ingest lines with a read-your-writes estimate as every
/// estimate_every-th line.
struct IngestWorkload {
  std::size_t tenants = 0;
  SetId n = 0;
  std::uint32_t k = 0;
  double eps = 0.15;
  ZipfShape shape{};                  // each tenant's instance
  std::size_t warmup_edges = 0;       // per tenant, in setup
  std::size_t warmup_line_edges = 0;  // edges per setup ingest line
  std::size_t line_edges = 64;        // edges per measured ingest line
  std::size_t family_sets = 0;        // sets per estimate family
  std::size_t estimate_every = 16;

  // Open-loop schedule: the reference rate (latency metrics), the offered
  // rate ladder (max_rate_rps), and the latency limit both are judged by.
  double reference_rate = 0.0;  // requests/s over all connections
  double ladder_start = 0.0;    // first rung, requests/s; doubles from here
  double ladder_cap = 0.0;      // highest rung the doubling may reach
  double p99_limit_ms = 0.0;
  double lag_limit_ms = 0.0;  // loadgen lateness above this voids a phase

  std::size_t replay_reps = 0;  // trace-fleet: timed calls per layer
};

IngestWorkload ingest_workload(const std::string& scale);
std::string tenant_name(std::size_t tenant);
std::uint64_t tenant_seed(std::uint64_t run_seed, std::size_t tenant);
/// The tenant's edge stream: its instance in random order, warm-up edges
/// first, then the measured lines (starting over if a run outlasts it).
EdgeCycle tenant_source(const IngestWorkload& w, std::uint64_t tenant_seed);
/// Exactly the params `create <tenant> <n> <k> <eps> <seed>` builds.
covstream::SketchParams tenant_params(const IngestWorkload& w,
                                      std::uint64_t seed);
std::string create_line(const IngestWorkload& w, std::size_t tenant,
                        std::uint64_t seed);
/// "ingest <tenant> s e s e ..." for `edges`.
std::string ingest_line(const std::string& tenant, const std::vector<Edge>& edges);
std::string family_text(const std::vector<SetId>& family);
/// The fleet's response formatting for estimate/solve values ("%.1f").
std::string format_value(double value);

int cmd_gen(Flags& flags);
int cmd_exact(Flags& flags);
int cmd_wire(Flags& flags);
int cmd_trace_kcover(Flags& flags);
int cmd_trace_fleet(Flags& flags);

}  // namespace perfbench
