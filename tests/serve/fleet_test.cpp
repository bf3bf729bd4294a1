// SketchFleet: multi-tenant registry + memory arbitration + views and warm
// solvers on published handles (DESIGN.md §5.12).
//
// The properties under test:
//  * per-tenant ingest/estimate/solve answers exactly match a directly-built
//    sketch over the same edge sequence (batched ingest is bit-for-bit equal
//    to per-edge update, so chunking never matters);
//  * evict-to-snapshot → transparent reload is bit-for-bit: an evicted tenant
//    answers estimates and solves identically to a never-evicted twin, and
//    its republished handle serializes to identical bytes;
//  * the budget arbiter evicts cold tenants (never the working set's hot
//    tenant mid-operation) and the fleet keeps answering correctly;
//  * an ingest copies nothing: the fleet charges the live sketch alone until
//    the version's first read builds its view, which every later read of
//    that version reuses;
//  * a published handle's warm solver is reused within a version and rebuilt
//    across versions and reloads, without changing any answer, and a solved
//    version is freed with its handle;
//  * readers racing one writer each see the tenant's chunk boundaries in
//    order, and a read that starts after an ingest returns sees it;
//  * take() hands back the sketch a tenant built, evicted or not, and
//    removes the tenant like drop();
//  * N client threads of create/ingest/estimate/solve/evict churn are safe
//    (the TSan CI leg runs this suite) and deterministic per tenant when each
//    tenant has one writer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/streaming_kcover.hpp"
#include "serve/sketch_fleet.hpp"
#include "sketch/substrate/snapshot.hpp"
#include "util/rng.hpp"
#include "scratch_dir.hpp"

namespace covstream {
namespace {

constexpr SetId kNumSets = 48;

SketchParams fleet_params() {
  SketchParams params;
  params.num_sets = kNumSets;
  params.k = 4;
  params.eps = 0.3;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 400;
  params.hash_seed = 4321;
  return params;
}

std::vector<Edge> make_edges(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back(
        Edge{static_cast<SetId>(rng.next_below(std::uint64_t{kNumSets})),
             rng.next_below(std::uint64_t{1} << 12)});
  }
  return edges;
}

template <typename T>
std::vector<std::uint8_t> to_bytes(const T& object) {
  SnapshotWriter writer(T::kSnapshotType);
  object.save(writer);
  return writer.finish();
}

std::string temp_spill_dir(const std::string& tag) {
  return scratch_path("covstream_fleet_" + tag);
}

TEST(Fleet, CreateIngestEstimateSolveMatchDirectSketch) {
  SketchFleet fleet({});
  std::string error;
  ASSERT_TRUE(fleet.create("alpha", fleet_params(), &error)) << error;

  const std::vector<Edge> edges = make_edges(20000, 0xA1FA);
  // Ingest in uneven batches; the direct reference uses one chunk — batched
  // admission is bit-for-bit equal to per-edge order, so they must agree.
  std::size_t at = 0;
  std::size_t batch = 1;
  while (at < edges.size()) {
    const std::size_t take = std::min(batch, edges.size() - at);
    ASSERT_TRUE(fleet.ingest(
        "alpha", std::span<const Edge>(edges.data() + at, take), &error))
        << error;
    at += take;
    batch = batch * 3 + 7;
  }

  SubsampleSketch reference(fleet_params());
  reference.update_chunk(edges);

  const std::vector<SetId> family = {1, 7, 13, 40};
  const std::optional<double> estimate = fleet.estimate("alpha", family, &error);
  ASSERT_TRUE(estimate.has_value()) << error;
  EXPECT_EQ(*estimate, reference.estimate_coverage(family));

  const std::optional<KCoverResult> solve = fleet.solve("alpha", 4, &error);
  ASSERT_TRUE(solve.has_value()) << error;
  const KCoverResult expected = kcover_on_sketch(reference, 4);
  EXPECT_EQ(solve->solution, expected.solution);
  EXPECT_EQ(solve->estimated_coverage, expected.estimated_coverage);

  const std::shared_ptr<const SubsampleSketch> handle =
      fleet.handle("alpha", &error);
  ASSERT_NE(handle, nullptr) << error;
  EXPECT_EQ(to_bytes(*handle), to_bytes(reference));
}

TEST(Fleet, ErrorsAreMessagesNotAborts) {
  SketchFleet fleet({});
  std::string error;
  EXPECT_FALSE(fleet.create("bad name!", fleet_params(), &error));
  EXPECT_FALSE(fleet.ingest("ghost", {}, &error));
  EXPECT_FALSE(fleet.estimate("ghost", {}, &error).has_value());
  EXPECT_FALSE(fleet.solve("ghost", 3, &error).has_value());
  EXPECT_FALSE(fleet.drop("ghost", &error));
  ASSERT_TRUE(fleet.create("real", fleet_params(), &error)) << error;
  EXPECT_FALSE(fleet.create("real", fleet_params(), &error));  // duplicate
  const std::vector<SetId> outside = {kNumSets};
  EXPECT_FALSE(fleet.estimate("real", outside, &error).has_value());
  // An out-of-range set id rejects the whole ingest batch: nothing of it is
  // admitted, and the tenant keeps serving.
  const std::vector<Edge> mixed = {{1, 10}, {kNumSets, 11}};
  EXPECT_FALSE(fleet.ingest("real", mixed, &error));
  EXPECT_EQ(error, "set id 48 outside universe [0, 48)");
  EXPECT_EQ(fleet.tenant_stats("real")->edges_ingested, 0u);
  EXPECT_EQ(fleet.estimate("real", std::vector<SetId>{1}, &error), 0.0);
  EXPECT_FALSE(fleet.solve("real", 0, &error).has_value());
  // No spill dir configured: explicit evict reports why.
  EXPECT_FALSE(fleet.evict("real", &error));
}

TEST(Fleet, EvictReloadIsBitForBitVsNeverEvicted) {
  SketchFleet::Options options;
  options.spill_dir = temp_spill_dir("evict");
  SketchFleet fleet(options);
  std::string error;
  ASSERT_TRUE(fleet.create("evicted", fleet_params(), &error)) << error;
  ASSERT_TRUE(fleet.create("kept", fleet_params(), &error)) << error;

  const std::vector<Edge> edges = make_edges(30000, 0xE71C);
  ASSERT_TRUE(fleet.ingest("evicted", edges, &error)) << error;
  ASSERT_TRUE(fleet.ingest("kept", edges, &error)) << error;

  ASSERT_TRUE(fleet.evict("evicted", &error)) << error;
  {
    const std::optional<SketchFleet::TenantStats> stats =
        fleet.tenant_stats("evicted");
    ASSERT_TRUE(stats.has_value());
    EXPECT_FALSE(stats->resident);
    EXPECT_EQ(stats->space_words, 0u);
  }
  EXPECT_EQ(fleet.stats().evictions, 1u);

  // Estimates, solves, and the raw serialized handle of the reloaded tenant
  // must equal the never-evicted twin's exactly.
  const std::vector<SetId> family = {3, 9, 21, 33, 44};
  const std::optional<double> evicted_estimate =
      fleet.estimate("evicted", family, &error);
  const std::optional<double> kept_estimate =
      fleet.estimate("kept", family, &error);
  ASSERT_TRUE(evicted_estimate.has_value() && kept_estimate.has_value());
  EXPECT_EQ(*evicted_estimate, *kept_estimate);
  EXPECT_EQ(fleet.stats().reloads, 1u);
  {
    const std::optional<SketchFleet::TenantStats> stats =
        fleet.tenant_stats("evicted");
    ASSERT_TRUE(stats.has_value());
    EXPECT_TRUE(stats->resident);
  }

  const std::optional<KCoverResult> evicted_solve =
      fleet.solve("evicted", 4, &error);
  const std::optional<KCoverResult> kept_solve = fleet.solve("kept", 4, &error);
  ASSERT_TRUE(evicted_solve.has_value() && kept_solve.has_value());
  EXPECT_EQ(evicted_solve->solution, kept_solve->solution);
  EXPECT_EQ(evicted_solve->estimated_coverage, kept_solve->estimated_coverage);

  const std::shared_ptr<const SubsampleSketch> reloaded =
      fleet.handle("evicted", &error);
  const std::shared_ptr<const SubsampleSketch> never =
      fleet.handle("kept", &error);
  ASSERT_NE(reloaded, nullptr);
  ASSERT_NE(never, nullptr);
  EXPECT_EQ(to_bytes(*reloaded), to_bytes(*never));

  // Ingestion continues identically after a reload (cutoff, heap order, and
  // free lists all round-trip).
  const std::vector<Edge> more = make_edges(5000, 0x90E);
  ASSERT_TRUE(fleet.ingest("evicted", more, &error)) << error;
  ASSERT_TRUE(fleet.ingest("kept", more, &error)) << error;
  EXPECT_EQ(to_bytes(*fleet.handle("evicted", &error)),
            to_bytes(*fleet.handle("kept", &error)));
}

TEST(Fleet, BudgetArbiterEvictsColdTenantsAndAnswersSurvive) {
  SketchFleet::Options options;
  options.spill_dir = temp_spill_dir("budget");
  // Room for roughly two resident tenants of this shape, not eight.
  options.memory_budget_words = 6000;
  SketchFleet fleet(options);
  std::string error;

  const std::vector<SetId> family = {2, 11, 29};
  std::vector<double> expected;
  for (int t = 0; t < 8; ++t) {
    const std::string name = "tenant" + std::to_string(t);
    ASSERT_TRUE(fleet.create(name, fleet_params(), &error)) << error;
    const std::vector<Edge> edges = make_edges(8000, 0xB0D0 + t);
    ASSERT_TRUE(fleet.ingest(name, edges, &error)) << error;
    SubsampleSketch reference(fleet_params());
    reference.update_chunk(edges);
    expected.push_back(reference.estimate_coverage(family));
  }

  const SketchFleet::FleetStats mid = fleet.stats();
  EXPECT_GT(mid.evictions, 0u);
  EXPECT_LT(mid.resident, mid.tenants);
  EXPECT_EQ(mid.tenants, 8u);

  // Every tenant — resident or spilled — still answers exactly; touching an
  // evicted one transparently reloads it (and may evict another).
  for (int t = 0; t < 8; ++t) {
    const std::string name = "tenant" + std::to_string(t);
    const std::optional<double> estimate = fleet.estimate(name, family, &error);
    ASSERT_TRUE(estimate.has_value()) << name << ": " << error;
    EXPECT_EQ(*estimate, expected[static_cast<std::size_t>(t)]) << name;
  }
  EXPECT_GT(fleet.stats().reloads, 0u);
}

TEST(Fleet, SolverCacheReusesWithinVersionAndRebuildsAcrossVersions) {
  SketchFleet::Options options;
  options.spill_dir = temp_spill_dir("solver");
  SketchFleet fleet(options);
  std::string error;
  ASSERT_TRUE(fleet.create("hot", fleet_params(), &error)) << error;
  const std::vector<Edge> edges = make_edges(15000, 0xCAC4E);
  ASSERT_TRUE(fleet.ingest("hot", edges, &error)) << error;

  const std::optional<KCoverResult> first = fleet.solve("hot", 4, &error);
  ASSERT_TRUE(first.has_value()) << error;
  EXPECT_EQ(fleet.stats().solver_cache_misses, 1u);
  EXPECT_EQ(fleet.stats().solver_cache_hits, 0u);

  // Same version: warm path (index + scratch reused), identical answer.
  const std::optional<KCoverResult> second = fleet.solve("hot", 4, &error);
  ASSERT_TRUE(second.has_value()) << error;
  EXPECT_EQ(fleet.stats().solver_cache_hits, 1u);
  EXPECT_EQ(second->solution, first->solution);
  EXPECT_EQ(second->estimated_coverage, first->estimated_coverage);
  // A different k on the same version is still the same warm entry.
  ASSERT_TRUE(fleet.solve("hot", 2, &error).has_value());
  EXPECT_EQ(fleet.stats().solver_cache_hits, 2u);

  // New version (more edges ingested): the cache must NOT serve the stale
  // view — a fresh entry is built against the new handle.
  const std::vector<Edge> more = make_edges(15000, 0xD0D0);
  ASSERT_TRUE(fleet.ingest("hot", more, &error)) << error;
  const std::optional<KCoverResult> third = fleet.solve("hot", 4, &error);
  ASSERT_TRUE(third.has_value()) << error;
  EXPECT_EQ(fleet.stats().solver_cache_misses, 2u);

  SubsampleSketch reference(fleet_params());
  reference.update_chunk(edges);
  reference.update_chunk(more);
  const KCoverResult expected = kcover_on_sketch(reference, 4);
  EXPECT_EQ(third->solution, expected.solution);
  EXPECT_EQ(third->estimated_coverage, expected.estimated_coverage);

  // A solved version is freed with its handle: once the tenant ingests
  // again, it is charged for its live sketch alone — no view, no solver.
  const std::vector<Edge> last = make_edges(5000, 0x1A57);
  ASSERT_TRUE(fleet.ingest("hot", last, &error)) << error;
  const std::shared_ptr<const SubsampleSketch> live = fleet.handle("hot", &error);
  ASSERT_NE(live, nullptr) << error;
  EXPECT_EQ(fleet.tenant_stats("hot")->space_words, live->space_words());

  // Eviction frees the warm solver with the handle, so a solve after the
  // reload rebuilds it — a miss although the version is unchanged — and
  // still gives the reference answer.
  ASSERT_TRUE(fleet.solve("hot", 4, &error).has_value()) << error;
  EXPECT_EQ(fleet.stats().solver_cache_misses, 3u);
  ASSERT_TRUE(fleet.evict("hot", &error)) << error;
  const std::optional<KCoverResult> reloaded = fleet.solve("hot", 4, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_EQ(fleet.stats().solver_cache_misses, 4u);
  reference.update_chunk(last);
  const KCoverResult after_reload = kcover_on_sketch(reference, 4);
  EXPECT_EQ(reloaded->solution, after_reload.solution);
  EXPECT_EQ(reloaded->estimated_coverage, after_reload.estimated_coverage);

  // Each tenant's handle carries its own solver: five more tenants solve
  // and every answer still matches its own sketch.
  for (int t = 0; t < 5; ++t) {
    const std::string name = "filler" + std::to_string(t);
    ASSERT_TRUE(fleet.create(name, fleet_params(), &error)) << error;
    const std::vector<Edge> filler_edges = make_edges(4000, 0xF11 + t);
    ASSERT_TRUE(fleet.ingest(name, filler_edges, &error)) << error;
    const std::optional<KCoverResult> got = fleet.solve(name, 3, &error);
    ASSERT_TRUE(got.has_value()) << error;
    SubsampleSketch filler_reference(fleet_params());
    filler_reference.update_chunk(filler_edges);
    EXPECT_EQ(got->solution, kcover_on_sketch(filler_reference, 3).solution);
  }
}

TEST(Fleet, IngestCopiesNothingAndFirstReadBuildsTheView) {
  SketchFleet fleet({});
  std::string error;
  ASSERT_TRUE(fleet.create("lazy", fleet_params(), &error)) << error;
  const std::vector<Edge> edges = make_edges(12000, 0x1A2E);
  SubsampleSketch reference(fleet_params());
  for (std::size_t at = 0; at < edges.size(); at += 3000) {
    const std::span<const Edge> chunk(edges.data() + at, 3000);
    ASSERT_TRUE(fleet.ingest("lazy", chunk, &error)) << error;
    reference.update_chunk(chunk);
  }
  const auto words = [&fleet] {
    return fleet.tenant_stats("lazy")->space_words;
  };
  // Ingest holds the live sketch and nothing else.
  EXPECT_EQ(words(), reference.space_words());

  // The version's first read builds its view, and the fleet charges it.
  const std::vector<SetId> family = {0, 6, 19, 31};
  EXPECT_EQ(fleet.estimate("lazy", family, &error),
            reference.estimate_coverage(family))
      << error;
  const std::size_t with_view =
      reference.space_words() + reference.view().space_words();
  EXPECT_EQ(words(), with_view);

  // Later reads of the version reuse that view: nothing more is built or
  // charged, and a solve builds its solver on the same view.
  const std::uint64_t misses = fleet.stats().solver_cache_misses;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fleet.estimate("lazy", family, &error).has_value()) << error;
  }
  const std::vector<std::vector<SetId>> families = {family, {2}};
  std::vector<SketchFleet::EstimateOutcome> outcomes;
  ASSERT_TRUE(fleet.estimate_batch("lazy", families, &outcomes, &error))
      << error;
  EXPECT_EQ(words(), with_view);
  EXPECT_EQ(fleet.stats().solver_cache_misses, misses);
  ASSERT_TRUE(fleet.solve("lazy", 3, &error).has_value()) << error;
  EXPECT_EQ(words(), with_view);
  EXPECT_EQ(fleet.stats().solver_cache_misses, misses + 1);
}

TEST(Fleet, ReadersRacingOneWriterSeeChunkBoundariesInOrder) {
  // One writer ingests fixed chunks into one tenant while three readers
  // estimate one family in a loop, racing each other to build each new
  // version's view (the TSan CI leg runs this). Every answer must be the
  // reference estimate at some chunk boundary, and no reader may see the
  // boundaries go backwards.
  constexpr std::size_t kChunks = 40;
  constexpr std::size_t kChunkEdges = 150;
  constexpr int kReaders = 3;
  const std::vector<Edge> edges = make_edges(kChunks * kChunkEdges, 0x5EAD);
  const auto chunk = [&edges](std::size_t c) {
    return std::span<const Edge>(edges.data() + c * kChunkEdges, kChunkEdges);
  };
  const std::vector<SetId> family = {2, 9, 23, 40};
  SubsampleSketch reference(fleet_params());
  std::vector<double> at_boundary = {reference.estimate_coverage(family)};
  for (std::size_t c = 0; c < kChunks; ++c) {
    reference.update_chunk(chunk(c));
    at_boundary.push_back(reference.estimate_coverage(family));
  }
  // Saturated, so p* moves and the answers are not monotone in the chunks.
  ASSERT_TRUE(reference.saturated());

  SketchFleet fleet({});
  std::string error;
  ASSERT_TRUE(fleet.create("raced", fleet_params(), &error)) << error;
  std::atomic<bool> writing{true};
  std::atomic<int> reading{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      reading.fetch_add(1);
      std::string why;
      // The earliest boundary consistent with every answer so far: matching
      // greedily finds an ordered explanation whenever one exists.
      std::size_t boundary = 0;
      for (bool last = false; !last;) {
        last = !writing.load();
        const std::optional<double> got = fleet.estimate("raced", family, &why);
        if (!got.has_value()) {
          ++failures;
          return;
        }
        while (boundary < at_boundary.size() && at_boundary[boundary] != *got) {
          ++boundary;
        }
        if (boundary == at_boundary.size()) {
          ++failures;  // no boundary at or after the previous answer's
          return;
        }
        // This read started after the last ingest returned, so it sees it.
        if (last && *got != at_boundary.back()) ++failures;
      }
    });
  }
  std::thread writer([&] {
    // Start once every reader runs, so the first versions race too.
    while (reading.load() < kReaders) std::this_thread::yield();
    std::string why;
    for (std::size_t c = 0; c < kChunks; ++c) {
      if (!fleet.ingest("raced", chunk(c), &why)) ++failures;
    }
    writing.store(false);
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(fleet.estimate("raced", family, &error), at_boundary.back());
}

TEST(Fleet, DropRemovesTenantAndSpillFile) {
  SketchFleet::Options options;
  options.spill_dir = temp_spill_dir("drop");
  SketchFleet fleet(options);
  std::string error;
  ASSERT_TRUE(fleet.create("gone", fleet_params(), &error)) << error;
  ASSERT_TRUE(fleet.ingest("gone", make_edges(2000, 0x60E), &error)) << error;
  ASSERT_TRUE(fleet.evict("gone", &error)) << error;
  const std::string spill = options.spill_dir + "/gone.spill.snap";
  {
    std::FILE* file = std::fopen(spill.c_str(), "rb");
    ASSERT_NE(file, nullptr) << "evict should have written " << spill;
    std::fclose(file);
  }
  ASSERT_TRUE(fleet.drop("gone", &error)) << error;
  EXPECT_FALSE(fleet.estimate("gone", {}, &error).has_value());
  EXPECT_EQ(fleet.stats().tenants, 0u);
  std::FILE* file = std::fopen(spill.c_str(), "rb");
  EXPECT_EQ(file, nullptr) << "drop should have deleted the spill file";
  if (file != nullptr) std::fclose(file);
}

TEST(Fleet, TakeHandsBackTheSketchAndRemovesTheTenant) {
  // take() is drop() that keeps the sketch: the tenant and its spill file
  // are gone, nothing is charged any more, and the sketch handed back is the
  // one its ingests built — reloaded first when the tenant was evicted.
  SketchFleet::Options options;
  options.spill_dir = temp_spill_dir("take");
  SketchFleet fleet(options);
  std::string error;
  const std::vector<Edge> edges = make_edges(5000, 0x7A4E);
  SubsampleSketch reference(fleet_params());
  reference.update_chunk(edges);
  for (const char* name : {"resident", "evicted"}) {
    ASSERT_TRUE(fleet.create(name, fleet_params(), &error)) << error;
    ASSERT_TRUE(fleet.ingest(name, edges, &error)) << error;
  }
  ASSERT_TRUE(fleet.evict("evicted", &error)) << error;
  for (const char* name : {"resident", "evicted"}) {
    const std::optional<SubsampleSketch> sketch = fleet.take(name, &error);
    ASSERT_TRUE(sketch.has_value()) << error;
    EXPECT_EQ(to_bytes(*sketch), to_bytes(reference)) << name;
    EXPECT_FALSE(fleet.estimate(name, {}, &error).has_value());
  }
  EXPECT_EQ(fleet.stats().tenants, 0u);
  EXPECT_EQ(fleet.stats().resident_words, 0u);
  EXPECT_FALSE(fleet.take("resident", &error).has_value());
  EXPECT_NE(error.find("unknown tenant"), std::string::npos) << error;
  const std::string spill = options.spill_dir + "/evicted.spill.snap";
  std::FILE* file = std::fopen(spill.c_str(), "rb");
  EXPECT_EQ(file, nullptr) << "take should have deleted the spill file";
  if (file != nullptr) std::fclose(file);
}

TEST(Fleet, ConcurrentChurnIsSafeAndPerTenantDeterministic) {
  // N threads; thread i is the only INGESTER of tenant i but estimates,
  // solves, and evicts ALL tenants concurrently. Under the budget arbiter
  // this exercises every cross-tenant path at once: reload-under-estimate,
  // eviction racing ingest (skipped via try_lock), warm-solver rebuilds. Run
  // under the TSan CI leg. Because each tenant has exactly one writer, its
  // final state must equal a serial reference over that thread's edges.
  constexpr int kThreads = 4;
  constexpr int kRounds = 60;
  SketchFleet::Options options;
  options.spill_dir = temp_spill_dir("churn");
  options.memory_budget_words = 5000;  // tight: forces steady eviction traffic
  SketchFleet fleet(options);
  std::string setup_error;
  std::vector<std::vector<Edge>> per_tenant_edges;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(fleet.create("worker" + std::to_string(t), fleet_params(),
                             &setup_error))
        << setup_error;
    per_tenant_edges.push_back(make_edges(kRounds * 200, 0xC400 + t));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string mine = "worker" + std::to_string(t);
      const std::vector<Edge>& edges = per_tenant_edges[static_cast<std::size_t>(t)];
      std::string error;
      for (int round = 0; round < kRounds; ++round) {
        const std::span<const Edge> chunk(
            edges.data() + static_cast<std::size_t>(round) * 200, 200);
        if (!fleet.ingest(mine, chunk, &error)) ++failures;
        const std::string other =
            "worker" + std::to_string((t + round) % kThreads);
        const std::vector<SetId> family = {1, 5, 17};
        if (!fleet.estimate(other, family, &error).has_value()) ++failures;
        if (round % 5 == 0) {
          if (!fleet.solve(other, 3, &error).has_value()) ++failures;
        }
        if (round % 7 == 0) {
          if (!fleet.evict(other, &error)) ++failures;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const SketchFleet::FleetStats stats = fleet.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.reloads, 0u);

  // Single-writer determinism: each tenant's final handle equals the serial
  // sketch of its own edge sequence, evictions and reloads notwithstanding.
  for (int t = 0; t < kThreads; ++t) {
    const std::string name = "worker" + std::to_string(t);
    std::string error;
    const std::shared_ptr<const SubsampleSketch> handle =
        fleet.handle(name, &error);
    ASSERT_NE(handle, nullptr) << error;
    SubsampleSketch reference(fleet_params());
    reference.update_chunk(per_tenant_edges[static_cast<std::size_t>(t)]);
    EXPECT_EQ(to_bytes(*handle), to_bytes(reference)) << name;
  }
}

}  // namespace
}  // namespace covstream
