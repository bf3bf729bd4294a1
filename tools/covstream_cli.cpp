// covstream command-line driver: generate workloads, inspect edge files, and
// run every streaming algorithm in the library against files on disk.
//
//   covstream_cli --cmd=generate --family=zipf --n=500 --m=100000 --out=g.bin
//   covstream_cli --cmd=stats    --input=g.bin
//   covstream_cli --cmd=kcover   --input=g.bin --n=500 --k=20 --eps=0.15
//   covstream_cli --cmd=outliers --input=g.bin --n=500 --lambda=0.1
//   covstream_cli --cmd=setcover --input=g.bin --n=500 --m=100000 --rounds=3
//   covstream_cli --cmd=convert  --input=g.bin --out=g.txt
//   covstream_cli --cmd=ingest   --input=g.bin --n=500 --k=20 --out=g.snap
//   covstream_cli --cmd=query    --snapshot=g.snap --sets=1,2,5
//   covstream_cli --cmd=solve    --snapshot=g.snap --k=20
//   covstream_cli --cmd=serve    --input=g.bin --n=500 --k=20   # stdin
//   covstream_cli --cmd=serve    --port=0                       # TCP
//   covstream_cli --cmd=worker   --input=g.bin --n=500 --shard=0 --shards=4
//   covstream_cli --cmd=coordinator --shard-dir=shards --expect=4 --k=20
//
// The full flag reference lives in tools/covstream_help.hpp (printed by
// --cmd=help and pinned by the golden help test).
#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/distributed.hpp"
#include "core/setcover_multipass.hpp"
#include "core/setcover_outliers.hpp"
#include "core/streaming_kcover.hpp"
#include "covstream_help.hpp"
#include "hash/simd/cpu_features.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/net_server.hpp"
#include "serve/file_pass.hpp"
#include "sketch/substrate/snapshot.hpp"
#include "solve/solver.hpp"
#include "stream/arrival_order.hpp"
#include "stream/file_stream.hpp"
#include "stream/stream_engine.hpp"
#include "util/cli.hpp"
#include "util/space_meter.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workloads/generators.hpp"

namespace covstream {
namespace {

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::unique_ptr<EdgeStream> open_stream(const std::string& path) {
  if (ends_with(path, ".bin")) {
    return std::make_unique<BinaryFileStream>(path);
  }
  return std::make_unique<TextFileStream>(path);
}

/// Reads --threads (pool size; 0 = serial) and --batch (engine chunk size).
struct EngineFlags {
  explicit EngineFlags(CliArgs& args)
      : batch_edges(args.get_size("batch", 0)) {
    const std::size_t threads = args.get_size("threads", 0);
    if (threads > 0) pool.emplace(threads);
  }

  ThreadPool* pool_ptr() { return pool.has_value() ? &*pool : nullptr; }

  std::optional<ThreadPool> pool;
  std::size_t batch_edges;
};

void write_edges(const std::string& path, const std::vector<Edge>& edges) {
  if (ends_with(path, ".bin")) {
    write_binary_edges(path, edges);
  } else {
    write_text_edges(path, edges);
  }
  std::printf("wrote %zu edges to %s\n", edges.size(), path.c_str());
}

int cmd_generate(CliArgs& args) {
  const std::string family = args.get_string("family", "uniform");
  const SetId n = static_cast<SetId>(args.get_size("n", 200));
  const ElemId m = args.get_size("m", 20000);
  const std::uint64_t seed = args.get_size("seed", 1);
  const std::string out = args.get_string("out", "instance.txt");
  const std::string order_name = args.get_string("order", "random");

  GeneratedInstance gen;
  if (family == "uniform") {
    gen = make_uniform(n, m, args.get_size("set_size", 50), seed);
  } else if (family == "zipf") {
    gen = make_zipf(n, m, args.get_size("min_size", 10),
                    args.get_size("max_size", 500),
                    args.get_double("alpha_sets", 0.8),
                    args.get_double("alpha_elems", 1.1), seed);
  } else if (family == "planted-kcover") {
    gen = make_planted_kcover(n, static_cast<std::uint32_t>(args.get_size("k", 8)),
                              args.get_size("block", 200),
                              args.get_double("decoy", 0.4), seed);
  } else if (family == "planted-setcover") {
    gen = make_planted_setcover(
        n, static_cast<std::uint32_t>(args.get_size("kstar", 8)),
        args.get_size("block", 200), args.get_double("decoy", 0.4), seed);
  } else if (family == "communities") {
    gen = make_communities(n, m,
                           static_cast<std::uint32_t>(args.get_size("groups", 10)),
                           args.get_size("set_size", 50),
                           args.get_double("cross", 0.1), seed);
  } else {
    std::fprintf(stderr, "unknown --family=%s\n", family.c_str());
    return 2;
  }
  args.finish();

  ArrivalOrder order = ArrivalOrder::kRandom;
  if (order_name == "set") order = ArrivalOrder::kSetMajorShuffled;
  if (order_name == "round-robin") order = ArrivalOrder::kRoundRobin;
  if (order_name == "elem") order = ArrivalOrder::kElementMajor;
  write_edges(out, ordered_edges(gen.graph, order, seed + 1));
  if (gen.opt_kcover) std::printf("planted Opt_k = %zu\n", *gen.opt_kcover);
  if (gen.opt_setcover) std::printf("planted k* = %u\n", *gen.opt_setcover);
  return 0;
}

int cmd_stats(CliArgs& args) {
  const std::string input = args.get_string("input", "");
  args.finish();
  COVSTREAM_CHECK(!input.empty());
  auto stream = open_stream(input);
  SetId max_set = 0;
  ElemId max_elem = 0;
  const std::size_t edges = run_pass(*stream, [&](const Edge& edge) {
    max_set = std::max(max_set, edge.set);
    max_elem = std::max(max_elem, edge.elem);
  });
  std::printf("%s: %zu edges, max set id %u, max elem id %llu\n", input.c_str(),
              edges, max_set, static_cast<unsigned long long>(max_elem));
  std::printf("cpu features: %s; kernel dispatch: %s (best supported: %s)\n",
              cpu_features().describe().c_str(), isa_name(active_isa()),
              isa_name(best_supported_isa()));
  // A COVSTREAM_ISA request the dispatcher could not honor (unknown name,
  // unsupported tier) is recorded at resolution time; surface it here so
  // the env path is as visible as the --isa flag path.
  if (!last_fallback_notice().empty()) {
    std::printf("note: %s\n", last_fallback_notice().c_str());
  }
  return 0;
}

int cmd_convert(CliArgs& args) {
  const std::string input = args.get_string("input", "");
  const std::string out = args.get_string("out", "");
  args.finish();
  COVSTREAM_CHECK(!input.empty() && !out.empty());
  auto stream = open_stream(input);
  std::vector<Edge> edges;
  run_pass(*stream, [&](const Edge& edge) { edges.push_back(edge); });
  write_edges(out, edges);
  return 0;
}

int cmd_kcover(CliArgs& args) {
  const std::string input = args.get_string("input", "");
  const SetId n = static_cast<SetId>(args.get_size("n", 0));
  const std::uint32_t k = static_cast<std::uint32_t>(args.get_size("k", 10));
  StreamingOptions options;
  options.eps = args.get_double("eps", 0.15);
  options.seed = args.get_size("seed", 1);
  EngineFlags engine(args);
  options.batch_edges = engine.batch_edges;
  args.finish();
  COVSTREAM_CHECK(!input.empty() && n > 0);

  auto stream = open_stream(input);
  Timer timer;
  const KCoverResult result =
      streaming_kcover(*stream, n, k, options, engine.pool_ptr());
  std::printf("k-cover (k=%u, eps=%.3f): estimated coverage %.0f\n", k,
              options.eps, result.estimated_coverage);
  std::printf("  solution   :");
  for (const SetId s : result.solution) std::printf(" %u", s);
  std::printf("\n  sketch     : %zu elements / %zu edges, p*=%.5f\n",
              result.sketch_retained, result.sketch_edges, result.p_star);
  std::printf("  space      : %zu words peak, %zu final, solver %zu\n",
              result.space_words, result.final_space_words,
              result.solver_space_words);
  std::printf("  passes     : %zu, wall %.2fs\n", result.passes, timer.seconds());
  return 0;
}

int cmd_outliers(CliArgs& args) {
  const std::string input = args.get_string("input", "");
  const SetId n = static_cast<SetId>(args.get_size("n", 0));
  OutliersOptions options;
  options.stream.eps = args.get_double("eps", 0.5);
  options.stream.seed = args.get_size("seed", 1);
  options.lambda = args.get_double("lambda", 0.1);
  EngineFlags engine(args);
  options.pool = engine.pool_ptr();
  options.stream.batch_edges = engine.batch_edges;
  args.finish();
  COVSTREAM_CHECK(!input.empty() && n > 0);

  auto stream = open_stream(input);
  Timer timer;
  const OutliersResult result = streaming_setcover_outliers(*stream, n, options);
  if (!result.feasible) {
    std::printf("no guess accepted (instance may be uncoverable)\n");
    return 1;
  }
  std::printf("set cover with lambda=%.3f outliers: %zu sets (accepted guess "
              "k'=%u)\n",
              options.lambda, result.solution.size(), result.accepted_k_prime);
  std::printf("  sketch coverage: %.4f (target >= %.4f)\n",
              result.sketch_cover_fraction, 1.0 - options.lambda);
  std::printf("  ladder     : %zu rungs, %zu words total\n", result.ladder_rungs,
              result.space_words);
  std::printf("  passes     : %zu, wall %.2fs\n", result.passes, timer.seconds());
  return 0;
}

int cmd_setcover(CliArgs& args) {
  const std::string input = args.get_string("input", "");
  const SetId n = static_cast<SetId>(args.get_size("n", 0));
  const ElemId m = args.get_size("m", 0);
  MultipassOptions options;
  options.stream.eps = args.get_double("eps", 0.5);
  options.stream.seed = args.get_size("seed", 1);
  options.rounds = args.get_size("rounds", 3);
  options.merge_mark_pass = args.get_bool("merge_mark", true);
  EngineFlags engine(args);
  options.pool = engine.pool_ptr();
  options.stream.batch_edges = engine.batch_edges;
  args.finish();
  COVSTREAM_CHECK(!input.empty() && n > 0 && m > 0);

  auto stream = open_stream(input);
  Timer timer;
  const MultipassResult result =
      streaming_setcover_multipass(*stream, n, m, options);
  std::printf("set cover (r=%zu): %zu sets, covered everything: %s\n",
              options.rounds, result.solution.size(),
              result.covered_everything ? "yes" : "no");
  std::printf("  residual   : %zu edges stored for the final stage\n",
              result.residual_edges);
  std::printf("  space      : %zu words (sketch %zu + bitmap %zu + residual "
              "%zu)\n",
              result.space_words, result.sketch_words, result.bitmap_words,
              result.residual_words);
  std::printf("  passes     : %zu, wall %.2fs\n", result.passes, timer.seconds());
  return result.covered_everything ? 0 : 1;
}

/// Parses "1,2,5" into set ids (empty string -> empty family). Set ids are
/// user input, so rejection is a message, not an abort: nullopt on anything
/// non-numeric or outside the sketch's [0, num_sets) universe.
std::optional<std::vector<SetId>> parse_set_list(const std::string& text,
                                                 SetId num_sets) {
  std::vector<SetId> sets;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find(',', at);
    if (end == std::string::npos) end = text.size();
    if (end > at) {
      const std::string token = text.substr(at, end - at);
      char* rest = nullptr;
      const unsigned long long id = std::strtoull(token.c_str(), &rest, 10);
      if (rest == token.c_str() || *rest != '\0' || id >= num_sets) {
        std::fprintf(stderr,
                     "bad set id '%s' (sketch universe is [0, %u))\n",
                     token.c_str(), num_sets);
        return std::nullopt;
      }
      sets.push_back(static_cast<SetId>(id));
    }
    at = end + 1;
  }
  return sets;
}

/// Sketch params + resume state shared by ingest and serve: fresh runs take
/// the sketch shape from the flags, resumed runs take it from the checkpoint
/// (the flags cannot redefine a sketch that already exists).
struct IngestSetup {
  std::optional<IngestCheckpoint> checkpoint;
  std::optional<SketchParams> fresh_params;
  std::string checkpoint_path;
  std::size_t checkpoint_every = 0;
};

/// A checkpoint's resume token is user input (it may pair a checkpoint with
/// the wrong --input); probe it with a dry seek so mismatches exit with a
/// message instead of tripping the engine's internal check.
bool resume_token_fits(EdgeStream& stream, const IngestCheckpoint& checkpoint,
                       const std::string& input) {
  stream.reset();
  if (stream.seek(checkpoint.resume.stream_position)) return true;
  std::fprintf(stderr,
               "checkpoint does not match %s: resume token rejected "
               "(wrong file, or not the checkpoint's input?)\n",
               input.c_str());
  return false;
}

std::optional<IngestSetup> read_ingest_setup(CliArgs& args) {
  IngestSetup setup;
  const SetId n = static_cast<SetId>(args.get_size("n", 0));
  const std::uint32_t k = static_cast<std::uint32_t>(args.get_size("k", 10));
  StreamingOptions options;
  options.eps = args.get_double("eps", 0.15);
  options.seed = args.get_size("seed", 1);
  setup.checkpoint_path = args.get_string("checkpoint", "");
  setup.checkpoint_every = args.get_size("checkpoint-every", 0);
  const bool resume = args.get_bool("resume", false);
  if (setup.checkpoint_every > 0 && setup.checkpoint_path.empty()) {
    std::fprintf(stderr, "--checkpoint-every needs --checkpoint=<path>\n");
    return std::nullopt;
  }
  if (resume) {
    if (setup.checkpoint_path.empty()) {
      std::fprintf(stderr, "--resume needs --checkpoint=<path>\n");
      return std::nullopt;
    }
    std::string error;
    setup.checkpoint =
        load_snapshot<IngestCheckpoint>(setup.checkpoint_path, &error);
    if (!setup.checkpoint) {
      std::fprintf(stderr, "cannot resume from %s: %s\n",
                   setup.checkpoint_path.c_str(), error.c_str());
      return std::nullopt;
    }
    std::fprintf(stderr, "resuming from %s: %llu edges already ingested\n",
                 setup.checkpoint_path.c_str(),
                 static_cast<unsigned long long>(
                     setup.checkpoint->resume.edges_kept));
  } else {
    if (n == 0) {
      std::fprintf(stderr, "--n is required (unless resuming)\n");
      return std::nullopt;
    }
    setup.fresh_params = options.sketch_params(n, k);
  }
  return setup;
}

/// The one tenant a file pass feeds, for both --cmd=ingest and the stdin
/// transport: the sketch of --input.
constexpr char kPassTenant[] = "input";

/// Registers the file pass's tenant — fresh at the flags' params, or
/// adopting the checkpoint's sketch with `pass` set to resume after its
/// prefix — and points `pass` at the setup's checkpoint file and cadence.
/// `setup` must outlive the pass. Prints why on failure.
bool seed_pass_tenant(SketchFleet& fleet, IngestSetup& setup, FilePass& pass) {
  pass.checkpoint_path = setup.checkpoint_path;
  pass.checkpoint_every = setup.checkpoint_every;
  if (setup.checkpoint) pass.resume = &setup.checkpoint->resume;
  std::string error;
  const bool seeded =
      setup.checkpoint
          ? fleet.adopt(kPassTenant, std::move(setup.checkpoint->sketch),
                        pass.resume->edges_kept, &error)
          : fleet.create(kPassTenant, *setup.fresh_params, &error);
  if (!seeded) {
    std::fprintf(stderr, "cannot create tenant '%s': %s\n", kPassTenant,
                 error.c_str());
  }
  return seeded;
}

int cmd_ingest(CliArgs& args) {
  const std::string input = args.get_string("input", "");
  const std::string out = args.get_string("out", "sketch.snap");
  FilePass pass;
  pass.batch_edges = args.get_size("batch", 0);
  std::optional<IngestSetup> setup = read_ingest_setup(args);
  args.finish();
  COVSTREAM_CHECK(!input.empty());
  if (!setup) return 2;
  // ingest only writes checkpoints on the periodic cadence (serve also
  // writes on quit); a path with no cadence and no resume would silently
  // provide zero crash protection, so reject it.
  if (!setup->checkpoint && setup->checkpoint_every == 0 &&
      !setup->checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "--checkpoint on ingest needs --checkpoint-every=N "
                 "(or --resume to read one)\n");
    return 2;
  }

  auto stream = open_stream(input);
  if (setup->checkpoint && !resume_token_fits(*stream, *setup->checkpoint, input)) {
    return 2;
  }
  Timer timer;
  SketchFleet fleet({});
  if (!seed_pass_tenant(fleet, *setup, pass)) return 1;
  std::string error;
  if (!run_file_pass(fleet, kPassTenant, *stream, pass, &error)) {
    std::fprintf(stderr, "cannot ingest %s: %s\n", input.c_str(),
                 error.c_str());
    return 1;
  }
  // The pass is done with the tenant: take its sketch rather than copy it.
  const std::optional<SubsampleSketch> sketch = fleet.take(kPassTenant, &error);
  if (!sketch || !save_snapshot(*sketch, out, &error)) {
    std::fprintf(stderr, "cannot save snapshot: %s\n", error.c_str());
    return 1;
  }
  std::printf("ingested %llu edges -> %s\n",
              static_cast<unsigned long long>(pass.edges.load()), out.c_str());
  std::printf("  sketch     : %zu elements / %zu edges, p*=%.5f\n",
              sketch->retained_elements(), sketch->stored_edges(),
              sketch->p_star());
  std::printf("  space      : %zu words peak, wall %.2fs\n",
              sketch->peak_space_words(), timer.seconds());
  return 0;
}

/// Loads a bare sketch snapshot or an ingest checkpoint (query and solve
/// accept either): reads the file once and dispatches on the header's
/// object type. Prints why on failure.
std::optional<SubsampleSketch> load_sketch_or_checkpoint(const std::string& path) {
  SnapshotReader reader = SnapshotReader::from_file(path);
  std::optional<SubsampleSketch> sketch;
  if (reader.ok()) {
    if (reader.type() == SnapshotType::kSubsampleSketch) {
      sketch = SubsampleSketch::load_snapshot(reader);
    } else if (reader.type() == SnapshotType::kIngestCheckpoint) {
      std::optional<IngestCheckpoint> checkpoint =
          IngestCheckpoint::load_snapshot(reader);
      if (checkpoint) sketch = std::move(checkpoint->sketch);
    } else {
      reader.fail("snapshot holds neither a sketch nor an ingest checkpoint");
    }
  }
  if (sketch && !reader.at_end()) {
    reader.fail("trailing bytes after the object payload");
    sketch.reset();
  }
  if (!sketch || !reader.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 reader.ok() ? "snapshot did not validate" : reader.error().c_str());
    return std::nullopt;
  }
  return sketch;
}

int cmd_query(CliArgs& args) {
  const std::string path = args.get_string("snapshot", "");
  const std::string sets_arg = args.get_string("sets", "");
  args.finish();
  COVSTREAM_CHECK(!path.empty());

  std::optional<SubsampleSketch> sketch = load_sketch_or_checkpoint(path);
  if (!sketch) return 1;
  std::printf("%s: %zu elements / %zu edges, p*=%.5f, %zu words\n",
              path.c_str(), sketch->retained_elements(), sketch->stored_edges(),
              sketch->p_star(), sketch->space_words());
  const std::optional<std::vector<SetId>> family =
      parse_set_list(sets_arg, sketch->params().num_sets);
  if (!family) return 2;
  if (!family->empty()) {
    std::printf("estimate(%zu sets) = %.1f\n", family->size(),
                sketch->estimate_coverage(*family));
  }
  return 0;
}

std::optional<GreedyStrategy> parse_strategy(const std::string& name) {
  if (name == "lazy") return GreedyStrategy::kLazyHeap;
  if (name == "decremental") return GreedyStrategy::kDecremental;
  std::fprintf(stderr, "unknown --strategy=%s (lazy|decremental)\n",
               name.c_str());
  return std::nullopt;
}

/// The one solve-and-report path: cmd_solve and cmd_coordinator print the
/// same lines, so the distributed smoke can compare their deterministic
/// prefix (everything but the wall/space line) byte for byte against a
/// single-stream run.
void solve_and_print(const SubsampleSketch& sketch, std::uint32_t k,
                     const std::string& strategy_name, GreedyStrategy strategy,
                     ThreadPool* pool) {
  Timer timer;
  const SketchView view = sketch.view();
  Solver solver(view, pool);
  const GreedyResult greedy = solver.max_cover(k, strategy);
  const double estimate =
      view.p_star > 0.0
          ? static_cast<double>(greedy.covered) / view.p_star
          : 0.0;
  std::printf("solve (k=%u, %s): estimated coverage %.1f\n", k,
              strategy_name.c_str(), estimate);
  std::printf("  solution   :");
  for (const SetId s : greedy.solution) std::printf(" %u", s);
  std::printf("\n  covered    : %zu of %zu retained (%.4f)\n", greedy.covered,
              view.num_retained, greedy.cover_fraction(view.num_retained));
  std::printf("  solver     : %s (index + scratch), wall %.2fs\n",
              format_words(solver.peak_space_words()).c_str(), timer.seconds());
}

int cmd_solve(CliArgs& args) {
  const std::string path = args.get_string("snapshot", "");
  const std::uint32_t k = static_cast<std::uint32_t>(args.get_size("k", 10));
  const std::string strategy_name = args.get_string("strategy", "decremental");
  // --threads here parallelizes the decremental strategy's large decrement
  // sweeps (no stream is read, so there is no --batch to set).
  const std::size_t threads = args.get_size("threads", 0);
  std::optional<ThreadPool> pool;
  if (threads > 0) pool.emplace(threads);
  args.finish();
  COVSTREAM_CHECK(!path.empty() && k > 0);
  const std::optional<GreedyStrategy> strategy = parse_strategy(strategy_name);
  if (!strategy) return 2;

  std::optional<SubsampleSketch> sketch = load_sketch_or_checkpoint(path);
  if (!sketch) return 1;
  solve_and_print(*sketch, k, strategy_name, *strategy,
                  pool.has_value() ? &*pool : nullptr);
  return 0;
}

/// --port=N: the multi-tenant TCP fleet front-end (docs/PROTOCOL.md). Runs
/// until some client sends `shutdown`. --port=0 binds an ephemeral port; the
/// banner names the bound one. `seed` (when set) populates the fresh fleet
/// before serving — the coordinator adopts its merged sketch this way; a
/// seed failure aborts startup.
int cmd_serve_fleet(CliArgs& args, std::size_t port,
                    const std::function<bool(SketchFleet&, std::string*)>&
                        seed = {}) {
  const std::size_t budget = args.get_size("tenants-budget", 0);
  const std::string spill_dir = args.get_string("spill-dir", "covstream_spill");
  const std::size_t threads = args.get_size("threads", 0);
  const bool persist = args.get_bool("persist", false);
  const std::size_t idle_timeout_ms = args.get_size("idle-timeout-ms", 60000);
  const std::size_t deadline_ms = args.get_size("deadline-ms", 0);
  std::size_t max_connections = args.get_size("max-connections", 4096);
  std::size_t batch_window_us = args.get_size("batch-window-us", 0);
  args.finish();
  if (port > 0xffff) {
    std::fprintf(stderr, "--port must fit 16 bits (got %zu)\n", port);
    return 2;
  }
  // Clamp --max-connections to what the fd table can actually hold (with
  // headroom for spill files, snapshots, epoll/eventfd and the listener):
  // shedding with `err busy` at accept beats dying on EMFILE mid-request.
  rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 &&
      nofile.rlim_cur != RLIM_INFINITY) {
    const std::size_t headroom = 64;
    const std::size_t cap = nofile.rlim_cur > 2 * headroom
                                ? static_cast<std::size_t>(nofile.rlim_cur) -
                                      headroom
                                : headroom;
    if (max_connections == 0 || max_connections > cap) {
      std::fprintf(stderr,
                   "--max-connections=%zu clamped to %zu (RLIMIT_NOFILE is "
                   "%llu; raise `ulimit -n` for more)\n",
                   max_connections, cap,
                   static_cast<unsigned long long>(nofile.rlim_cur));
      max_connections = cap;
    }
  }
  // An over-long batch window only adds latency: past a few ms the client
  // has long since flushed its pipeline and the reactor is just sitting on
  // complete requests.
  constexpr std::size_t kMaxBatchWindowUs = 5000;
  if (batch_window_us > kMaxBatchWindowUs) {
    std::fprintf(stderr, "--batch-window-us=%zu clamped to %zu (5 ms)\n",
                 batch_window_us, kMaxBatchWindowUs);
    batch_window_us = kMaxBatchWindowUs;
  }

  // Take SIGTERM/SIGINT through sigwait on a dedicated thread (blocked
  // everywhere else, including the pool threads spawned after this): a
  // signal becomes a graceful drain-and-flush instead of an instant kill.
  sigset_t term_signals;
  sigemptyset(&term_signals);
  sigaddset(&term_signals, SIGTERM);
  sigaddset(&term_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &term_signals, nullptr);

  SketchFleet::Options fleet_options;
  fleet_options.memory_budget_words = budget;
  fleet_options.spill_dir = spill_dir;
  fleet_options.persistent = persist;
  SketchFleet fleet(fleet_options);
  if (persist) {
    const SketchFleet::BootReport& boot = fleet.boot_report();
    std::printf("fleet boot: %zu restored, %zu empty, %zu adopted, "
                "%zu quarantined, %zu temps swept\n",
                boot.restored, boot.recreated_empty, boot.adopted,
                boot.quarantined, boot.temps_swept);
  }
  if (seed) {
    std::string seed_error;
    if (!seed(fleet, &seed_error)) {
      std::fprintf(stderr, "cannot seed the fleet: %s\n", seed_error.c_str());
      return 1;
    }
  }
  ThreadPool pool(threads);
  NetServer::Options net_options;
  net_options.port = static_cast<std::uint16_t>(port);
  net_options.idle_timeout_ms = static_cast<std::uint32_t>(idle_timeout_ms);
  net_options.request_deadline_ms = static_cast<std::uint32_t>(deadline_ms);
  net_options.max_connections = max_connections;
  net_options.batch_window_us = static_cast<std::uint32_t>(batch_window_us);
  NetServer server(fleet, pool, net_options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "cannot listen on 127.0.0.1:%zu: %s\n", port,
                 error.c_str());
    return 1;
  }
  std::atomic<bool> signal_thread_done{false};
  std::thread signal_thread([&term_signals, &server, &signal_thread_done] {
    // sigtimedwait in a loop (not sigwait) so the thread also exits when a
    // protocol `shutdown` beat the signal to it.
    timespec tick{};
    tick.tv_nsec = 200 * 1000 * 1000;
    while (!signal_thread_done.load(std::memory_order_relaxed)) {
      const int sig = sigtimedwait(&term_signals, nullptr, &tick);
      if (sig == SIGTERM || sig == SIGINT) {
        std::fprintf(stderr, "fleet: caught %s, draining\n",
                     sig == SIGTERM ? "SIGTERM" : "SIGINT");
        server.request_shutdown();
        return;
      }
    }
  });
  std::printf("fleet serving on 127.0.0.1:%u (%zu pool threads, budget %zu "
              "words, spill %s%s); protocol: docs/PROTOCOL.md; send "
              "'shutdown' to stop\n",
              server.port(), pool.thread_count(), budget, spill_dir.c_str(),
              persist ? ", persistent" : "");
  std::fflush(stdout);
  server.wait_shutdown();
  server.stop();
  signal_thread_done.store(true, std::memory_order_relaxed);
  signal_thread.join();
  bool flush_ok = true;
  if (persist) {
    std::size_t flushed = 0;
    flush_ok = fleet.flush_all(&flushed, &error);
    if (flush_ok) {
      std::printf("fleet flushed: %zu dirty tenants written\n", flushed);
    } else {
      std::fprintf(stderr, "fleet flush on shutdown FAILED: %s\n",
                   error.c_str());
    }
  }
  const SketchFleet::FleetStats stats = fleet.stats();
  const NetServer::Counters counters = server.counters();
  std::printf("fleet stopped: %llu connections, %llu requests, %zu tenants, "
              "%llu evictions, %llu reloads, %llu shed, %llu idle-closed\n",
              static_cast<unsigned long long>(counters.connections_accepted),
              static_cast<unsigned long long>(counters.requests_served),
              stats.tenants, static_cast<unsigned long long>(stats.evictions),
              static_cast<unsigned long long>(stats.reloads),
              static_cast<unsigned long long>(counters.shed_busy),
              static_cast<unsigned long long>(counters.idle_closed));
  return flush_ok ? 0 : 1;
}

/// Without --port: the stdin transport over a one-tenant fleet. A file pass
/// feeds --input into tenant kPassTenant on a background thread while each
/// stdin line runs through execute_fleet_batch, exactly as a TCP line does,
/// and its reply goes to stdout. Only `wait [<ms>]` is the transport's own.
/// `quit`, `shutdown` or EOF end the pass at its next chunk boundary; with
/// --checkpoint a final checkpoint lets --resume finish it later.
int cmd_serve_stdin(CliArgs& args) {
  const std::string input = args.get_string("input", "");
  FilePass pass;
  pass.batch_edges = args.get_size("batch", 0);
  std::optional<IngestSetup> setup = read_ingest_setup(args);
  args.finish();
  if (input.empty()) {
    std::fprintf(stderr, "serve needs --input=<edge file> (or --port=N)\n");
    return 2;
  }
  if (!setup) return 2;

  auto stream = open_stream(input);
  if (setup->checkpoint && !resume_token_fits(*stream, *setup->checkpoint, input)) {
    return 2;
  }
  SketchFleet fleet({});
  if (!seed_pass_tenant(fleet, *setup, pass)) return 1;
  // Written by the pass thread; read only once pass_done is ready.
  bool pass_failed = false;
  std::string pass_error;
  std::future<void> pass_done = std::async(std::launch::async, [&] {
    pass_failed = !run_file_pass(fleet, kPassTenant, *stream, pass, &pass_error);
  });
  const auto counters = [&pass] {
    return " edges=" + std::to_string(pass.edges.load()) +
           " checkpoint_failures=" +
           std::to_string(pass.checkpoint_failures.load());
  };
  const auto ended = [&](const char* state) {
    return pass_failed ? "err pass failed: " + pass_error + "\n"
                       : std::string("ok pass ") + state + counters() + "\n";
  };
  std::fprintf(stderr,
               "serving %s as tenant '%s': one request per stdin line "
               "(docs/PROTOCOL.md); wait [<ms>] waits for the pass, quit "
               "ends it\n",
               input.c_str(), kPassTenant);

  std::string line;
  bool closing = false;
  while (!closing && std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::istringstream words(line);
    std::string command, ms, extra;
    words >> command >> ms >> extra;
    std::string reply;
    if (command == "wait") {
      // `wait` blocks until the pass ends; `wait <ms>` answers either way.
      const bool valid = extra.empty() && ms.size() <= 9 &&
                         ms.find_first_not_of("0123456789") == std::string::npos;
      if (!valid) {
        reply = "err usage: wait [<ms>]\n";
      } else if (ms.empty() ||
                 pass_done.wait_for(std::chrono::milliseconds(std::stol(ms))) ==
                     std::future_status::ready) {
        pass_done.wait();
        reply = ended("done");
      } else {
        reply = "ok pass running" + counters() + "\n";
      }
    } else {
      const FleetBatchRequest request{line, std::chrono::steady_clock::now()};
      const FleetBatchResult result = execute_fleet_batch(fleet, {&request, 1}, 0);
      reply = result.responses;
      closing = result.close;
    }
    std::fputs(reply.c_str(), stdout);
    std::fflush(stdout);
  }
  const bool finished =
      pass_done.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  pass.stop.store(true);
  pass_done.wait();
  std::fputs(ended(finished ? "done" : "stopped").c_str(), stdout);
  return pass_failed ? 1 : 0;
}

int cmd_serve(CliArgs& args) {
  if (args.has("port")) return cmd_serve_fleet(args, args.get_size("port", 0));
  return cmd_serve_stdin(args);
}

int cmd_worker(CliArgs& args) {
  const std::string input = args.get_string("input", "");
  const std::size_t shard = args.get_size("shard", 0);
  const std::size_t shards = args.get_size("shards", 0);
  const std::string out =
      args.get_string("out", "shard" + std::to_string(shard) + ".snap");
  const SetId n = static_cast<SetId>(args.get_size("n", 0));
  const std::uint32_t k = static_cast<std::uint32_t>(args.get_size("k", 10));
  StreamingOptions options;
  options.eps = args.get_double("eps", 0.15);
  options.seed = args.get_size("seed", 1);
  const std::size_t batch_edges = args.get_size("batch", 0);
  args.finish();
  COVSTREAM_CHECK(!input.empty() && n > 0);
  if (shards == 0 || shard >= shards) {
    std::fprintf(stderr, "--shard must be in [0, --shards) (got shard %zu of %zu)\n",
                 shard, shards);
    return 2;
  }
  // Same params a single-stream ingest of the whole file would use — the
  // whole point: W workers with identical flags produce shards that merge
  // into exactly that single-stream sketch.
  const SketchParams params = options.sketch_params(n, k);
  ShardManifest manifest;
  manifest.shard_id = static_cast<std::uint32_t>(shard);
  manifest.shard_count = static_cast<std::uint32_t>(shards);
  manifest.router_seed = shard_router_seed(params);

  auto stream = open_stream(input);
  Timer timer;
  SubsampleSketch sketch(params);
  const StreamEngine engine({batch_edges, nullptr});
  // Every worker reads the whole stream and keeps only the edges the shared
  // router assigns it (the partition is computed, not pre-split on disk).
  const StreamEngine::PassStats stats = engine.run(
      *stream, shard_ownership_filter(manifest),
      [&sketch](std::span<const Edge> chunk) { sketch.update_chunk(chunk); });
  manifest.edges_ingested = stats.edges_kept;

  const ShardSnapshot snapshot{manifest, std::move(sketch)};
  std::string error;
  if (!save_snapshot(snapshot, out, &error)) {
    std::fprintf(stderr, "cannot save shard snapshot: %s\n", error.c_str());
    return 1;
  }
  std::printf("worker %zu/%zu (%s): owned %zu of %zu edges -> %s\n", shard,
              shards, to_string(manifest.routing).c_str(), stats.edges_kept,
              stats.edges_read, out.c_str());
  std::printf("  sketch     : %zu elements / %zu edges, p*=%.5f\n",
              snapshot.sketch.retained_elements(),
              snapshot.sketch.stored_edges(), snapshot.sketch.p_star());
  std::printf("  space      : %zu words peak, wall %.2fs\n",
              snapshot.sketch.peak_space_words(), timer.seconds());
  return 0;
}

/// Polls `dir` for *.snap files until `expect` of them exist (or `wait_ms`
/// runs out; expect == 0 scans once). Workers write snapshots via
/// temp-and-rename, so every file the scan sees is complete.
std::vector<std::string> discover_shard_files(const std::string& dir,
                                              std::size_t expect,
                                              std::size_t wait_ms) {
  namespace fs = std::filesystem;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(wait_ms);
  std::vector<std::string> files;
  for (;;) {
    files.clear();
    std::error_code ec;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
      if (entry.is_regular_file(ec) && entry.path().extension() == ".snap") {
        files.push_back(entry.path().string());
      }
    }
    if (expect == 0 || files.size() >= expect ||
        std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::sort(files.begin(), files.end());
  return files;
}

int cmd_coordinator(CliArgs& args) {
  const std::string list = args.get_string("snapshots", "");
  const std::string dir = args.get_string("shard-dir", "");
  const std::size_t expect = args.get_size("expect", 0);
  const std::size_t wait_ms = args.get_size("wait-ms", 10000);
  const std::size_t fan_in = args.get_size("fan-in", 2);
  const std::uint32_t k = static_cast<std::uint32_t>(args.get_size("k", 10));
  const std::string strategy_name = args.get_string("strategy", "decremental");
  const std::string out = args.get_string("out", "");
  const std::size_t threads = args.get_size("threads", 0);
  const bool serve = args.has("port");
  // With --port the remaining serve flags belong to cmd_serve_fleet, which
  // finishes the args itself.
  if (!serve) args.finish();
  if (list.empty() == dir.empty()) {
    std::fprintf(stderr,
                 "coordinator needs exactly one of --snapshots=<a,b,...> or "
                 "--shard-dir=<dir>\n");
    return 2;
  }
  if (fan_in < 2) {
    std::fprintf(stderr, "--fan-in must be >= 2 (got %zu)\n", fan_in);
    return 2;
  }
  const std::optional<GreedyStrategy> strategy = parse_strategy(strategy_name);
  if (!strategy) return 2;

  std::vector<std::string> files;
  if (!list.empty()) {
    std::size_t at = 0;
    while (at < list.size()) {
      std::size_t end = list.find(',', at);
      if (end == std::string::npos) end = list.size();
      if (end > at) files.push_back(list.substr(at, end - at));
      at = end + 1;
    }
  } else {
    files = discover_shard_files(dir, expect, wait_ms);
    if (expect > 0 && files.size() < expect) {
      std::fprintf(stderr,
                   "shard discovery timed out: found %zu of %zu snapshots in "
                   "%s after %zu ms\n",
                   files.size(), expect, dir.c_str(), wait_ms);
      return 1;
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "no shard snapshots to merge\n");
    return 1;
  }

  std::vector<ShardSnapshot> shard_set;
  shard_set.reserve(files.size());
  std::uint64_t total_edges = 0;
  for (const std::string& path : files) {
    std::string error;
    std::optional<ShardSnapshot> shard = load_snapshot<ShardSnapshot>(path, &error);
    if (!shard) {
      std::fprintf(stderr, "cannot load shard %s: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    total_edges += shard->manifest.edges_ingested;
    shard_set.push_back(std::move(*shard));
  }

  std::optional<ThreadPool> pool;
  if (threads > 0) pool.emplace(threads);
  Timer timer;
  std::string error;
  std::optional<SubsampleSketch> merged = merge_shard_set(
      std::move(shard_set), fan_in, pool.has_value() ? &*pool : nullptr, &error);
  if (!merged) {
    // The distinct validate_shard_set message (missing / duplicate /
    // mismatched shard) — never a silent partial merge.
    std::fprintf(stderr, "shard set rejected: %s\n", error.c_str());
    return 1;
  }
  std::printf("coordinator: merged %zu shards (fan-in %zu, %llu worker edges) "
              "in %.2fs\n",
              files.size(), fan_in,
              static_cast<unsigned long long>(total_edges), timer.seconds());
  std::printf("  sketch     : %zu elements / %zu edges, p*=%.5f\n",
              merged->retained_elements(), merged->stored_edges(),
              merged->p_star());
  if (!out.empty()) {
    if (!save_snapshot(*merged, out, &error)) {
      std::fprintf(stderr, "cannot save merged snapshot: %s\n", error.c_str());
      return 1;
    }
    std::printf("  merged     : saved %s\n", out.c_str());
  }
  solve_and_print(*merged, k, strategy_name, *strategy,
                  pool.has_value() ? &*pool : nullptr);
  if (serve) {
    pool.reset();  // the fleet serves off its own pool
    std::fflush(stdout);
    return cmd_serve_fleet(
        args, args.get_size("port", 0),
        [&merged, total_edges](SketchFleet& fleet, std::string* err) {
          return fleet.adopt("merged", std::move(*merged), total_edges, err);
        });
  }
  return 0;
}

int dispatch(int argc, char** argv) {
  CliArgs args(argc, argv);
  // Resolve --isa before any command touches a sketch: the override applies
  // process-wide to every subsequent kernel dispatch. An unsupported tier
  // falls back (visibly); an unknown name is an error like any bad flag.
  const std::string isa = args.get_string("isa", "");
  if (!isa.empty()) {
    if (!set_isa_override(std::string_view(isa))) {
      std::fprintf(stderr, "unknown --isa=%s (want scalar|avx2)\n",
                   isa.c_str());
      return 2;
    }
    if (!last_fallback_notice().empty()) {
      std::fprintf(stderr, "note: %s\n", last_fallback_notice().c_str());
    }
  }
  const std::string cmd = args.get_string("cmd", "help");
  if (cmd == "generate") return cmd_generate(args);
  if (cmd == "stats") return cmd_stats(args);
  if (cmd == "convert") return cmd_convert(args);
  if (cmd == "kcover") return cmd_kcover(args);
  if (cmd == "outliers") return cmd_outliers(args);
  if (cmd == "setcover") return cmd_setcover(args);
  if (cmd == "ingest") return cmd_ingest(args);
  if (cmd == "query") return cmd_query(args);
  if (cmd == "solve") return cmd_solve(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "worker") return cmd_worker(args);
  if (cmd == "coordinator") return cmd_coordinator(args);
  std::fputs(cli_help_text(), stdout);
  return cmd == "help" ? 0 : 2;
}

}  // namespace
}  // namespace covstream

int main(int argc, char** argv) { return covstream::dispatch(argc, argv); }
