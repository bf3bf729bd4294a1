// [U-time] Section 3's "the update times of all our algorithms are O~(1)":
// google-benchmark microbenchmarks of the per-edge update cost, hashing
// throughput, file-backed ingest, and sketch solving, across budgets and
// stream lengths. The ns/edge figure must stay flat as the stream grows.
//
// Results are also written to BENCH_update_time.json (google-benchmark's
// JSON format) unless --benchmark_out is given explicitly, so the perf
// trajectory is tracked across PRs.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "benchmark_json_main.hpp"

#include "core/distributed.hpp"
#include "core/greedy_on_sketch.hpp"
#include "core/sketch_ladder.hpp"
#include "core/subsample_sketch.hpp"
#include "core/weighted_sketch.hpp"
#include "hash/hash64.hpp"
#include "hash/simd/kernels.hpp"
#include "hash/tabulation.hpp"
#include "parallel/thread_pool.hpp"
#include "sketch/kmv.hpp"
#include "sketch/substrate/flat_table.hpp"
#include "stream/arrival_order.hpp"
#include "stream/file_stream.hpp"
#include "stream/stream_engine.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace covstream {
namespace {

void BM_Mix64Hash(benchmark::State& state) {
  const Mix64Hash hash(42);
  ElemId e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash(e++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Mix64Hash);

void BM_TabulationHash(benchmark::State& state) {
  const TabulationHash hash(42);
  ElemId e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash(e++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TabulationHash);

// --------------------------------------------------- kernel microbenches ----
// Each SIMD kernel per forced tier (DESIGN.md §5.11), Arg(0) = scalar,
// Arg(1) = avx2, over one engine-sized chunk — the same sweep shape the
// admission path dispatches. The avx2 rows skip on machines without it.

constexpr std::size_t kKernelChunk = StreamEngine::kDefaultBatchEdges;

const simd::KernelTable* kernel_table_for_bench(benchmark::State& state) {
  const IsaLevel level =
      state.range(0) == 0 ? IsaLevel::kScalar : IsaLevel::kAvx2;
  if (level == IsaLevel::kAvx2 && best_supported_isa() != IsaLevel::kAvx2) {
    state.SkipWithError("CPU has no AVX2");
    return nullptr;
  }
  state.SetLabel(isa_name(level));
  return &simd::kernels_for(level);
}

std::vector<std::uint64_t> kernel_bench_elems() {
  std::vector<std::uint64_t> elems(kKernelChunk);
  Rng rng(0xBE7C4ULL);
  for (std::uint64_t& e : elems) e = rng.next_below(std::uint64_t{1} << 40);
  return elems;
}

void BM_KernelMix64Batch(benchmark::State& state) {
  const simd::KernelTable* table = kernel_table_for_bench(state);
  if (table == nullptr) return;
  const std::vector<std::uint64_t> elems = kernel_bench_elems();
  std::vector<std::uint64_t> keys(elems.size());
  for (auto _ : state) {
    table->mix64_batch(elems.data(), keys.data(), elems.size(), 0x9E3779B9ULL);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * elems.size()));
}
BENCHMARK(BM_KernelMix64Batch)->Arg(0)->Arg(1);

// The fused chunk-entry sweep: AoS elem extraction + set bounds check +
// mix64, straight off the 16-byte Edge stride — what update_chunk actually
// pays before admission.
void BM_KernelHashEdges(benchmark::State& state) {
  const simd::KernelTable* table = kernel_table_for_bench(state);
  if (table == nullptr) return;
  const std::vector<std::uint64_t> raw = kernel_bench_elems();
  std::vector<Edge> edges(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    edges[i] = {static_cast<SetId>(i % 200), raw[i]};
  }
  std::vector<std::uint64_t> elems(edges.size());
  std::vector<std::uint64_t> keys(edges.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table->hash_edges_u64(edges.data(), elems.data(), keys.data(),
                              edges.size(), 0x9E3779B9ULL, 200));
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * edges.size()));
}
BENCHMARK(BM_KernelHashEdges)->Arg(0)->Arg(1);

void BM_KernelTabulationBatch(benchmark::State& state) {
  const simd::KernelTable* table = kernel_table_for_bench(state);
  if (table == nullptr) return;
  const std::vector<std::uint64_t> elems = kernel_bench_elems();
  std::vector<std::uint64_t> keys(elems.size());
  std::vector<std::uint64_t> tables(8 * 256);
  Rng rng(0x7AB7ABULL);
  for (std::uint64_t& entry : tables) entry = rng.next();
  for (auto _ : state) {
    table->tabulation_batch(tables.data(), elems.data(), keys.data(),
                            elems.size());
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * elems.size()));
}
BENCHMARK(BM_KernelTabulationBatch)->Arg(0)->Arg(1);

/// Hashed keys plus a bound keeping ~1/1024 of them — the saturated
/// regime's survivor density for the count/compact sweeps below.
std::pair<std::vector<std::uint64_t>, std::uint64_t> saturated_keys() {
  std::vector<std::uint64_t> keys(kKernelChunk);
  const Mix64Hash hash(42);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = hash(i);
  return {std::move(keys), ~std::uint64_t{0} / 1024};
}

void BM_KernelCountBelow(benchmark::State& state) {
  const simd::KernelTable* table = kernel_table_for_bench(state);
  if (table == nullptr) return;
  const auto [keys, bound] = saturated_keys();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table->count_below_u64(keys.data(), keys.size(), bound));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * keys.size()));
}
BENCHMARK(BM_KernelCountBelow)->Arg(0)->Arg(1);

void BM_KernelCompactBelow(benchmark::State& state) {
  const simd::KernelTable* table = kernel_table_for_bench(state);
  if (table == nullptr) return;
  const auto [keys, bound] = saturated_keys();
  std::vector<std::uint32_t> out(keys.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table->compact_below_u64(keys.data(), keys.size(), bound, out.data()));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * keys.size()));
}
BENCHMARK(BM_KernelCompactBelow)->Arg(0)->Arg(1);

/// Feeds `stream` through the chunk-vectorized admission path in
/// engine-sized chunks — the path every StreamEngine consumer runs.
void feed_chunked(SubsampleSketch& sketch, std::span<const Edge> stream) {
  constexpr std::size_t kChunk = StreamEngine::kDefaultBatchEdges;
  for (std::size_t at = 0; at < stream.size(); at += kChunk) {
    sketch.update_chunk(stream.subspan(at, std::min(kChunk, stream.size() - at)));
  }
}

// Sketch update cost across stream lengths, measured through the default
// chunked admission path (DESIGN.md §5.8) — what every engine-driven
// consumer pays per edge. O~(1) means flat ns/edge.
/// Streams of exactly `edges` edges for the update-cost families. The
/// pre-PR3 version of this fixture produced n * 64 = 12800 edges for every
/// Arg (the uniform generator emits set_size edges per set, so resizing
/// down never had anything to trim) — set_size now scales with the target
/// so ns/edge really is measured across stream lengths.
std::vector<Edge> update_stream(std::size_t edges, std::uint64_t seed) {
  const SetId n = 200;
  const GeneratedInstance gen = make_uniform(
      n, edges / 2 + 1, std::max<std::size_t>(64, edges / n), seed);
  std::vector<Edge> stream = ordered_edges(gen.graph, ArrivalOrder::kRandom, 1);
  stream.resize(std::min(stream.size(), edges));
  return stream;
}

void BM_SketchUpdatePerEdge(benchmark::State& state) {
  const std::vector<Edge> stream =
      update_stream(static_cast<std::size_t>(state.range(0)), 7);

  SketchParams params;
  params.num_sets = 200;
  params.k = 8;
  params.eps = 0.2;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 20000;
  params.hash_seed = 11;

  for (auto _ : state) {
    SubsampleSketch sketch(params);
    feed_chunked(sketch, stream);
    benchmark::DoNotOptimize(sketch.stored_edges());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * stream.size()));
}
BENCHMARK(BM_SketchUpdatePerEdge)->Arg(1 << 14)->Arg(1 << 16)->Arg(1 << 18);

// The pre-batching baseline: one update() call per edge (kept as the
// in-tree comparison family for the chunked path above).
void BM_SketchUpdateSerial(benchmark::State& state) {
  const std::vector<Edge> stream =
      update_stream(static_cast<std::size_t>(state.range(0)), 7);

  SketchParams params;
  params.num_sets = 200;
  params.k = 8;
  params.eps = 0.2;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 20000;
  params.hash_seed = 11;

  for (auto _ : state) {
    SubsampleSketch sketch(params);
    for (const Edge& edge : stream) sketch.update(edge);
    benchmark::DoNotOptimize(sketch.stored_edges());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * stream.size()));
}
BENCHMARK(BM_SketchUpdateSerial)->Arg(1 << 16);

// The families above draw uniform n = 200 instances, whose lists stay a few
// sets long. A heavy-head zipf stream (the file_kcover model at 2000 sets)
// grows its popular elements' lists to hundreds of sets, past the arena's
// 64-word bitmap block (DESIGN.md §5.6): this family prices admission into
// high-degree elements. The params are what `kcover --k=50 --eps=0.15`
// sketches with (eps' = eps / 12, so the degree cap, ~14k, never binds);
// the budget is a third of the stream, so the sketch saturates partway.
void BM_SketchUpdateZipf(benchmark::State& state) {
  const SetId n = 2000;
  const GeneratedInstance gen = make_zipf(n, 200000, 100, 1000, 0.8, 1.1, 5);
  const std::vector<Edge> stream = ordered_edges(gen.graph, ArrivalOrder::kRandom, 6);

  SketchParams params;
  params.num_sets = n;
  params.k = 50;
  params.eps = 0.15 / 12;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = stream.size() / 3;
  params.hash_seed = 15;

  for (auto _ : state) {
    SubsampleSketch sketch(params);
    feed_chunked(sketch, stream);
    benchmark::DoNotOptimize(sketch.stored_edges());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * stream.size()));
}
BENCHMARK(BM_SketchUpdateZipf);

// Update cost when the sketch is saturated (evictions amortized).
void BM_SketchUpdateSaturated(benchmark::State& state) {
  const SetId n = 200;
  const GeneratedInstance gen = make_uniform(n, 100000, 64, 9);
  const std::vector<Edge> stream = ordered_edges(gen.graph, ArrivalOrder::kRandom, 2);

  SketchParams params;
  params.num_sets = n;
  params.k = 8;
  params.eps = 0.2;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = static_cast<std::size_t>(state.range(0));
  params.hash_seed = 13;

  for (auto _ : state) {
    SubsampleSketch sketch(params);
    for (const Edge& edge : stream) sketch.update(edge);
    benchmark::DoNotOptimize(sketch.p_star());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * stream.size()));
}
BENCHMARK(BM_SketchUpdateSaturated)->Arg(1000)->Arg(10000)->Arg(100000);

// The paper's common case after saturation (§5.1): almost every edge's
// element hash is at or above the cutoff and must cost a compare, not a
// table probe. A saturated sketch is fed only guaranteed-rejected edges
// through the batched pre-filter; target is single-digit ns/edge.
void BM_SketchUpdateSaturatedReject(benchmark::State& state) {
  const SetId n = 200;
  const GeneratedInstance gen = make_uniform(n, 100000, 64, 9);
  const std::vector<Edge> stream = ordered_edges(gen.graph, ArrivalOrder::kRandom, 2);

  SketchParams params;
  params.num_sets = n;
  params.k = 8;
  params.eps = 0.2;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 10000;
  params.hash_seed = 13;

  SubsampleSketch sketch(params);
  feed_chunked(sketch, stream);

  // Keep only edges the saturated cutoff rejects; the bench stream then
  // leaves the sketch untouched, so every iteration measures pure rejection.
  const Mix64Hash hash(params.hash_seed);
  const double p_star = sketch.p_star();
  std::vector<Edge> rejected;
  rejected.reserve(stream.size());
  for (const Edge& edge : stream) {
    // Strictly above the largest retained hash: such an element cannot be
    // retained, and any stream element that was ever admitted below the
    // cutoff still is — so these edges all die on the cutoff compare.
    if (hash_to_unit(hash(edge.elem)) > p_star) rejected.push_back(edge);
  }
  const std::size_t before = sketch.stored_edges();

  for (auto _ : state) {
    feed_chunked(sketch, rejected);
    benchmark::DoNotOptimize(sketch.stored_edges());
  }
  if (sketch.stored_edges() != before) {
    state.SkipWithError("reject stream mutated the sketch");
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * rejected.size()));
}
BENCHMARK(BM_SketchUpdateSaturatedReject);

void BM_GreedyOnSketch(benchmark::State& state) {
  const SetId n = 500;
  const GeneratedInstance gen = make_uniform(n, 50000, 200, 17);
  SketchParams params;
  params.num_sets = n;
  params.k = 16;
  params.eps = 0.2;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 30000;
  params.hash_seed = 19;
  SubsampleSketch sketch(params);
  for (const Edge& edge : ordered_edges(gen.graph, ArrivalOrder::kRandom, 3)) {
    sketch.update(edge);
  }
  const SketchView view = sketch.view();
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_max_cover(view, 16).covered);
  }
}
BENCHMARK(BM_GreedyOnSketch);

void BM_SketchViewBuild(benchmark::State& state) {
  const SetId n = 500;
  const GeneratedInstance gen = make_uniform(n, 50000, 200, 21);
  SketchParams params;
  params.num_sets = n;
  params.k = 16;
  params.eps = 0.2;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 30000;
  params.hash_seed = 23;
  SubsampleSketch sketch(params);
  for (const Edge& edge : ordered_edges(gen.graph, ArrivalOrder::kRandom, 4)) {
    sketch.update(edge);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.view().num_edges());
  }
}
BENCHMARK(BM_SketchViewBuild);

// Weighted sketch shares the substrate; its per-edge cost must track the
// unweighted sketch's (one extra log per new element).
void BM_WeightedSketchUpdate(benchmark::State& state) {
  const SetId n = 200;
  const GeneratedInstance gen = make_uniform(n, 50000, 64, 25);
  const std::vector<Edge> stream = ordered_edges(gen.graph, ArrivalOrder::kRandom, 5);

  SketchParams params;
  params.num_sets = n;
  params.k = 8;
  params.eps = 0.2;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = static_cast<std::size_t>(state.range(0));
  params.hash_seed = 27;

  for (auto _ : state) {
    WeightedSubsampleSketch sketch(params);
    for (const Edge& edge : stream) {
      sketch.update({edge.set, edge.elem, 1.0 + static_cast<double>(edge.elem % 7)});
    }
    benchmark::DoNotOptimize(sketch.stored_edges());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * stream.size()));
}
BENCHMARK(BM_WeightedSketchUpdate)->Arg(10000)->Arg(100000);

// The substrate's open-addressing element index vs. the per-edge lookup cost
// it replaced (std::unordered_map::find on the hot path).
void BM_FlatTableFindHit(benchmark::State& state) {
  FlatElemTable table;
  constexpr std::uint32_t kElems = 1 << 16;
  for (std::uint32_t i = 0; i < kElems; ++i) table.insert(i * 2654435761u, i);
  std::uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.find(static_cast<std::uint32_t>(probe++ % kElems) * 2654435761u));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatTableFindHit);

void BM_KmvAdd(benchmark::State& state) {
  KmvSketch sketch(1024, 31);
  ElemId e = 0;
  for (auto _ : state) {
    sketch.add(e++);
    benchmark::DoNotOptimize(sketch.capacity());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KmvAdd);

// ----------------------------------------------------------- file ingest ----
// The batched pipeline's reason to exist: ns/edge off disk, per edge and
// per batch, through the same streams covstream_cli reads.

struct IngestFixture {
  std::string text_path;
  std::string bin_path;
  std::size_t text_bytes = 0;
  std::size_t bin_bytes = 0;
  std::vector<Edge> edges;
};

const IngestFixture& ingest_fixture() {
  static const IngestFixture fixture = [] {
    IngestFixture f;
    const GeneratedInstance gen = make_uniform(500, 200000, 600, 33);
    f.edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 6);
    const char* tmp = std::getenv("TMPDIR");
    const std::string dir = tmp != nullptr ? tmp : "/tmp";
    f.text_path = dir + "/covstream_ingest_bench.txt";
    f.bin_path = dir + "/covstream_ingest_bench.bin";
    write_text_edges(f.text_path, f.edges);
    write_binary_edges(f.bin_path, f.edges);
    f.text_bytes = std::filesystem::file_size(f.text_path);
    f.bin_bytes = std::filesystem::file_size(f.bin_path);
    return f;
  }();
  return fixture;
}

/// Every file-ingest family reports ns/edge (items) AND MB/s off the file
/// (bytes): the edge rate is what the paper's O~(1) claim is about, the
/// byte rate is what disk-bound capacity planning needs.
void set_ingest_counters(benchmark::State& state, std::size_t edges,
                         std::size_t file_bytes) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * edges));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * file_bytes));
}

void BM_TextFileIngestPerEdge(benchmark::State& state) {
  const IngestFixture& fx = ingest_fixture();
  TextFileStream stream(fx.text_path);
  for (auto _ : state) {
    stream.reset();
    Edge edge;
    std::size_t edges = 0;
    while (stream.next(edge)) ++edges;
    benchmark::DoNotOptimize(edges);
  }
  set_ingest_counters(state, fx.edges.size(), fx.text_bytes);
}
BENCHMARK(BM_TextFileIngestPerEdge);

void BM_TextFileIngestBatched(benchmark::State& state) {
  const IngestFixture& fx = ingest_fixture();
  TextFileStream stream(fx.text_path);
  std::vector<Edge> block(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    stream.reset();
    std::size_t edges = 0, got = 0;
    while ((got = stream.next_batch(block.data(), block.size())) > 0) edges += got;
    benchmark::DoNotOptimize(edges);
  }
  set_ingest_counters(state, fx.edges.size(), fx.text_bytes);
}
BENCHMARK(BM_TextFileIngestBatched)->Arg(1 << 12)->Arg(1 << 15);

void BM_BinaryFileIngestBatched(benchmark::State& state) {
  const IngestFixture& fx = ingest_fixture();
  BinaryFileStream stream(fx.bin_path);
  std::vector<Edge> block(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    stream.reset();
    std::size_t edges = 0, got = 0;
    while ((got = stream.next_batch(block.data(), block.size())) > 0) edges += got;
    benchmark::DoNotOptimize(edges);
  }
  set_ingest_counters(state, fx.edges.size(), fx.bin_bytes);
}
BENCHMARK(BM_BinaryFileIngestBatched)->Arg(1 << 12)->Arg(1 << 15);

// End-to-end: binary file -> engine -> sketch, the path covstream_cli runs.
void BM_EngineSketchFromBinaryFile(benchmark::State& state) {
  const IngestFixture& fx = ingest_fixture();
  BinaryFileStream stream(fx.bin_path);
  SketchParams params;
  params.num_sets = 500;
  params.k = 8;
  params.eps = 0.2;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 30000;
  params.hash_seed = 11;
  const StreamEngine engine({static_cast<std::size_t>(state.range(0)), nullptr});
  for (auto _ : state) {
    SubsampleSketch sketch(params);
    engine.run(stream, {}, [&](std::span<const Edge> chunk) {
      for (const Edge& edge : chunk) sketch.update(edge);
    });
    benchmark::DoNotOptimize(sketch.stored_edges());
  }
  set_ingest_counters(state, fx.edges.size(), fx.bin_bytes);
}
BENCHMARK(BM_EngineSketchFromBinaryFile)->Arg(1 << 12)->Arg(1 << 15);

// Ladder fan-out through the engine: serial vs pooled sketch updates. The
// caps for k = 4 and 8 reach n = 500, so those two rungs read one sketch:
// 4 rungs, 3 sketches.
void BM_EngineLadderConsume(benchmark::State& state) {
  const IngestFixture& fx = ingest_fixture();
  VectorStream stream(fx.edges);
  std::vector<SketchParams> rungs;
  for (int r = 0; r < 4; ++r) {
    SketchParams params;
    params.num_sets = 500;
    params.k = static_cast<std::uint32_t>(4 << r);
    params.eps = 0.2;
    params.budget_mode = BudgetMode::kExplicit;
    params.explicit_budget = 20000;
    params.hash_seed = 17;
    rungs.push_back(params);
  }
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads == 0 ? 1 : threads);
  ThreadPool* pool_ptr = threads == 0 ? nullptr : &pool;
  for (auto _ : state) {
    SketchLadder ladder(rungs, pool_ptr);
    ladder.consume(stream);
    benchmark::DoNotOptimize(ladder.peak_space_words());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * fx.edges.size()));
}
BENCHMARK(BM_EngineLadderConsume)->Arg(0)->Arg(4);

// The Algorithm 5 ladder's whole point of sharing one hash sweep: 8 rungs
// with one seed cost one hash per edge plus 8 cutoff compares, vs. 8 full
// per-edge updates (hash + admit each) of standalone sketches. The
// stream is long and element-dense (elements recur across many sets) with
// rung budgets far below it — the ladder's operating regime, where every
// rung saturates early and spends the pass rejecting; a sparse stream
// would instead measure admission/eviction churn, which is identical on
// both paths.
const std::vector<Edge>& ladder_stream() {
  static const std::vector<Edge> edges = [] {
    const GeneratedInstance gen = make_uniform(500, 20000, 5000, 35);
    return ordered_edges(gen.graph, ArrivalOrder::kRandom, 6);
  }();
  return edges;
}

std::vector<SketchParams> eight_rungs() {
  std::vector<SketchParams> rungs;
  for (int r = 0; r < 8; ++r) {
    SketchParams params;
    params.num_sets = 500;
    params.k = static_cast<std::uint32_t>(2 << r);
    params.eps = 0.2;
    params.budget_mode = BudgetMode::kExplicit;
    params.explicit_budget = 1000 + 250 * static_cast<std::size_t>(r);
    params.hash_seed = 17;  // shared: rungs differ only in cap/budget/cutoff
    rungs.push_back(params);
  }
  return rungs;
}

void BM_LadderPerRung8(benchmark::State& state) {
  const std::vector<Edge>& stream = ladder_stream();
  const auto rungs = eight_rungs();
  for (auto _ : state) {
    std::vector<SubsampleSketch> sketches(rungs.begin(), rungs.end());
    for (const Edge& edge : stream) {
      for (SubsampleSketch& sketch : sketches) sketch.update(edge);
    }
    std::size_t peak = 0;
    for (const SubsampleSketch& sketch : sketches) {
      peak += sketch.peak_space_words();
    }
    benchmark::DoNotOptimize(peak);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * stream.size()));
}
BENCHMARK(BM_LadderPerRung8);

void BM_LadderSharedKeys8(benchmark::State& state) {
  const std::vector<Edge>& stream = ladder_stream();
  const auto rungs = eight_rungs();
  constexpr std::size_t kChunk = StreamEngine::kDefaultBatchEdges;
  for (auto _ : state) {
    SketchLadder ladder(rungs, nullptr);
    const std::span<const Edge> all(stream);
    for (std::size_t at = 0; at < all.size(); at += kChunk) {
      ladder.update_chunk(all.subspan(at, std::min(kChunk, all.size() - at)));
    }
    benchmark::DoNotOptimize(ladder.peak_space_words());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * stream.size()));
}
BENCHMARK(BM_LadderSharedKeys8);

// ----------------------------------------------- hierarchical merge cost ----
// The coordinator's merge tree (DESIGN.md §5.14): S hash-partitioned shard
// sketches collapsed level by level at fan-in 2. Items = stored edges
// across the shards, so the row reads as merge throughput in edges/s; the
// per-iteration shard copies sit outside the timed region.

/// S shard sketches built once by hash-routing one stream, as the workers do.
const std::vector<SubsampleSketch>& merge_bench_shards(std::size_t count) {
  static std::vector<SubsampleSketch> shards;
  static std::size_t built_for = 0;
  if (built_for != count) {
    SketchParams params;
    params.num_sets = 200;
    params.k = 8;
    params.eps = 0.2;
    params.budget_mode = BudgetMode::kExplicit;
    params.explicit_budget = 20000;
    params.hash_seed = 11;
    const StreamEngine::Router route = make_shard_router(
        ShardRouting::kByElementHash, count, shard_router_seed(params));
    shards.assign(count, SubsampleSketch(params));
    std::size_t at = 0;
    for (const Edge& edge : update_stream(1 << 18, 7)) {
      shards[route(edge, at++)].update(edge);
    }
    built_for = count;
  }
  return shards;
}

void BM_HierarchicalMerge(benchmark::State& state) {
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  const std::vector<SubsampleSketch>& shards = merge_bench_shards(count);
  std::size_t merged_edges = 0;
  for (const SubsampleSketch& shard : shards) {
    merged_edges += shard.stored_edges();
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<SubsampleSketch> copies = shards;
    state.ResumeTiming();
    const SubsampleSketch merged = hierarchical_merge(std::move(copies), 2);
    benchmark::DoNotOptimize(merged.stored_edges());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * merged_edges));
}
BENCHMARK(BM_HierarchicalMerge)->Arg(4)->Arg(16);

// ------------------------------------------------------ snapshot I/O cost ----
// Serialization throughput of the persistence layer (DESIGN.md §5.9): how
// fast a saturated sketch turns into its wire image and back. Reported as
// bytes_per_second (the README perf table's MB/s rows; tools/bench_diff.py
// --doc renders them from the committed JSON). In-memory on purpose — disk
// speed is the machine's business, the format's cost is ours.

/// One saturated, heap-built sketch reused by both snapshot families.
const SubsampleSketch& snapshot_bench_sketch() {
  static const SubsampleSketch sketch = [] {
    SketchParams params;
    params.num_sets = 200;
    params.k = 8;
    params.eps = 0.2;
    params.budget_mode = BudgetMode::kExplicit;
    params.explicit_budget = 20000;
    params.hash_seed = 11;
    SubsampleSketch built(params);
    feed_chunked(built, update_stream(1 << 18, 7));
    return built;
  }();
  return sketch;
}

void BM_SnapshotSave(benchmark::State& state) {
  const SubsampleSketch& sketch = snapshot_bench_sketch();
  std::size_t image_bytes = 0;
  for (auto _ : state) {
    SnapshotWriter writer(SubsampleSketch::kSnapshotType);
    sketch.save(writer);
    const std::vector<std::uint8_t> image = writer.finish();
    image_bytes = image.size();
    benchmark::DoNotOptimize(image.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * image_bytes));
}
BENCHMARK(BM_SnapshotSave);

void BM_SnapshotLoad(benchmark::State& state) {
  const SubsampleSketch& sketch = snapshot_bench_sketch();
  SnapshotWriter writer(SubsampleSketch::kSnapshotType);
  sketch.save(writer);
  const std::vector<std::uint8_t> image = writer.finish();
  for (auto _ : state) {
    // The reader consumes its image, so each iteration needs a fresh copy;
    // keep that memcpy out of the timed region — the row published to the
    // README measures the format's cost (checksum scan + parse + structural
    // validation), not a buffer duplication.
    state.PauseTiming();
    std::vector<std::uint8_t> owned = image;
    state.ResumeTiming();
    SnapshotReader reader(std::move(owned));
    auto loaded = SubsampleSketch::load_snapshot(reader);
    if (!loaded) {
      state.SkipWithError(reader.error().c_str());
      break;
    }
    benchmark::DoNotOptimize(loaded->stored_edges());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * image.size()));
}
BENCHMARK(BM_SnapshotLoad);

}  // namespace
}  // namespace covstream

int main(int argc, char** argv) {
  return covstream::bench::run_benchmark_json_main(argc, argv,
                                                   "BENCH_update_time.json");
}
