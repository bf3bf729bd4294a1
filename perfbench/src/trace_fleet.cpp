// Traced replay of wire_ingest's server-side layers, in process.
//
// The server's internals cannot be spanned from outside the program, so
// each layer's public call is replayed here on a fleet built and warmed
// exactly as the server's was (same tenants, params and edges), and
// timed on its own:
//
//   serve.dispatch   execute_fleet_batch on one request line
//   serve.fleet      SketchFleet::ingest / estimate_batch / solve (cold)
//   core.admit       SubsampleSketch::update_chunk on a tenant-sized copy
//   serve.publish    SubsampleSketch copy construction (the publish copy)
//   core.estimate    SubsampleSketch::estimate_coverage (retained-slot scan)
//   solve.view       SubsampleSketch::view      (cold solve)
//   solve.greedy     Solver + greedy pick       (cold solve)
//   sketch.snapshot  save_snapshot / load_snapshot of a tenant sketch
//
// run.py adds the live round trip of `ping` (the network/reactor path) to
// these self times and compares the sum with the live `ingest` round trip.
#include <filesystem>
#include <optional>

#include "core/streaming_kcover.hpp"
#include "serve/net_server.hpp"
#include "serve/sketch_fleet.hpp"
#include "sketch/substrate/snapshot.hpp"
#include "tool.hpp"

namespace perfbench {
namespace {

using covstream::FleetBatchRequest;
using covstream::SketchFleet;
using covstream::SubsampleSketch;

std::string execute(SketchFleet& fleet, const std::string& line) {
  const FleetBatchRequest request{line, std::chrono::steady_clock::now()};
  return covstream::execute_fleet_batch(fleet, {&request, 1}, 0).responses;
}

/// Collects one named timing series and its spans.
struct Series {
  std::map<std::string, std::vector<double>> ms;
  Tracer tracer;
  std::uint64_t request = 0;

  template <typename Fn>
  void time(const std::string& name, Fn&& fn) {
    const std::int64_t start = now_ns();
    fn();
    const std::int64_t end = now_ns();
    tracer.close(tracer.open(), 0, ++request, name, start, end);
    ms[name].push_back(static_cast<double>(end - start) * 1e-6);
  }
};

}  // namespace

int cmd_trace_fleet(Flags& flags) {
  const IngestWorkload w = ingest_workload(flags.str("scale"));
  const std::uint64_t seed = flags.u64("seed");
  const std::string tmp = flags.str("tmp");
  const std::string spans = flags.str("spans");
  flags.finish();

  SketchFleet fleet(SketchFleet::Options{});

  // The server's setup, line for line.
  std::vector<EdgeCycle> sources;
  std::vector<Edge> edges;
  for (std::size_t t = 0; t < w.tenants; ++t) {
    const std::uint64_t tseed = tenant_seed(seed, t);
    if (execute(fleet, create_line(w, t, tseed)).rfind("ok ", 0) != 0) {
      die("replay create failed");
    }
    sources.push_back(tenant_source(w, tseed));
    for (std::size_t done = 0; done < w.warmup_edges; done += w.warmup_line_edges) {
      sources.back().fill(edges, std::min(w.warmup_line_edges, w.warmup_edges - done));
      if (execute(fleet, ingest_line(tenant_name(t), edges)).rfind("ok ", 0) != 0) {
        die("replay warm-up failed");
      }
    }
  }

  Series series;
  SeededRng rng(mix64(seed ^ 0x7ace5ULL));
  std::string error;
  // Tenant 0 is the replay's subject.
  const std::string name = tenant_name(0);
  double sink = 0.0;
  std::optional<SubsampleSketch> twin;
  std::shared_ptr<const SubsampleSketch> published;
  for (std::size_t i = 0; i < w.replay_reps; ++i) {
    const std::vector<SetId> family = random_family(rng, w.n, w.family_sets);
    const std::string estimate = "estimate " + name + " " + family_text(family);
    series.time("serve.dispatch.estimate", [&] { sink += execute(fleet, estimate).size(); });
    const std::vector<std::vector<SetId>> families{family};
    std::vector<SketchFleet::EstimateOutcome> outcomes;
    series.time("serve.fleet.estimate", [&] {
      if (!fleet.estimate_batch(name, families, &outcomes, &error)) die(error);
    });
    const std::shared_ptr<const SubsampleSketch> handle = fleet.handle(name, &error);
    if (handle == nullptr) die(error);
    series.time("core.estimate", [&] { sink += handle->estimate_coverage(family); });

    // Three consecutive 64-edge lines: through dispatch, through the fleet,
    // and split into admission and publish copy on a twin.
    sources[0].fill(edges, w.line_edges);
    const std::string line = ingest_line(name, edges);
    series.time("serve.dispatch.ingest", [&] { sink += execute(fleet, line).size(); });
    sources[0].fill(edges, w.line_edges);
    series.time("serve.fleet.ingest", [&] {
      if (!fleet.ingest(name, edges, &error)) die(error);
    });
    // The twin lives across iterations like the tenant's live sketch, and
    // each publish replaces the previous copy as the fleet's handle does.
    if (!twin) twin.emplace(*fleet.handle(name, &error));
    sources[0].fill(edges, w.line_edges);
    series.time("core.admit", [&] { twin->update_chunk(edges); });
    series.time("serve.publish", [&] {
      published = std::make_shared<const SubsampleSketch>(*twin);
    });
    if (i % 10 == 5) {
      // A reader's solve right after a write: the (tenant, version) solver
      // cache misses, so the fleet pays the cold path timed below it.
      series.time("serve.fleet.solve", [&] {
        if (!fleet.solve(name, w.k, &error)) die(error);
      });
      std::optional<covstream::SketchView> view;
      series.time("solve.view", [&] { view.emplace(handle->view()); });
      series.time("solve.greedy", [&] {
        covstream::Solver solver(*view);
        sink += covstream::kcover_with_solver(*handle, *view, solver, w.k).estimated_coverage;
      });
      const std::string snap = (std::filesystem::path(tmp) / "replay.snap").string();
      series.time("sketch.snapshot.spill", [&] {
        if (!covstream::save_snapshot(*handle, snap)) die("save_snapshot failed");
      });
      series.time("sketch.snapshot.reload", [&] {
        if (!covstream::load_snapshot<SubsampleSketch>(snap)) die("load_snapshot failed");
      });
      std::filesystem::remove(snap);
    }
  }
  if (!spans.empty() && !series.tracer.write_json(spans)) die("cannot write " + spans);

  const std::shared_ptr<const SubsampleSketch> handle = fleet.handle(name, &error);
  const std::optional<SketchFleet::TenantStats> stats = fleet.tenant_stats(name);
  JsonOut out;
  for (const auto& [key, values] : series.ms) {
    out.raw(key, JsonOut()
                     .num("n", static_cast<double>(values.size()))
                     .num("p50_ms", median(values))
                     .num("p99_ms", quantile(values, 0.99))
                     .done());
  }
  out.num("publish_bytes", static_cast<double>(handle->space_words()) * 8.0)
      .num("peak_space_words", static_cast<double>(handle->peak_space_words()))
      .num("p_star", handle->p_star())
      .num("saturated", handle->saturated() ? 1.0 : 0.0)
      .num("tenant_edges", static_cast<double>(sources[0].size()))
      .num("space_words", static_cast<double>(handle->space_words()))
      .num("kept_ratio", static_cast<double>(handle->stored_edges()) /
                             static_cast<double>(std::max<std::uint64_t>(1, stats->edges_ingested)))
      .num("sink", sink > 0 ? 1.0 : 0.0);
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace perfbench
