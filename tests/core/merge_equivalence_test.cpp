// Merge-equivalence fuzz suite (DESIGN.md §5.14): for random streams, any
// shard count, and any merge-tree shape/order, the merged sketch must be
// equivalent to the single-stream sketch — across every sketch type (plain,
// weighted, L0), and also after each shard takes a snapshot round
// trip first (the multi-process shuffle path, including the 'SHRD' frame).
//
// "Equivalent" is the full query surface: retained set, per-element edge
// lists, realized thresholds, cutoffs, coverage estimates, and greedy
// solutions. Internal slot numbering is NOT part of the contract (a merge
// admits elements in shard order, a single pass in arrival order), which is
// exactly why every query answers through element ids, never slots.
//
// Routing matters for exactness (core/distributed.hpp): element-hash keeps
// all of an element's edges on one shard and is exact unconditionally —
// including when the degree cap binds. Round-robin splits an element across
// shards and is exact only while the cap never binds (the merge unions
// sorted set ids; the stream keeps first-arrivals) — pinned both ways below.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/distributed.hpp"
#include "core/greedy_on_sketch.hpp"
#include "core/weighted_sketch.hpp"
#include "sketch/l0_kcover.hpp"
#include "util/rng.hpp"

namespace covstream {
namespace {

SketchParams fuzz_params(SetId n, std::size_t budget, std::uint64_t seed,
                         std::uint32_t k = 5, double eps = 0.2) {
  SketchParams params;
  params.num_sets = n;
  params.k = k;
  params.eps = eps;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = budget;
  params.hash_seed = seed;
  return params;
}

std::vector<Edge> random_stream(Rng& rng, SetId n, ElemId m, std::size_t count) {
  std::vector<Edge> edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back({static_cast<SetId>(rng.next_below(std::uint64_t{n})),
                     rng.next_below(std::uint64_t{m})});
  }
  return edges;
}

/// Splits `edges` exactly as W workers would: one ownership filter per
/// shard, each scanning the full stream (the production cmd_worker path).
std::vector<std::vector<Edge>> partition_edges(const std::vector<Edge>& edges,
                                               std::uint32_t shards,
                                               ShardRouting routing,
                                               const SketchParams& params) {
  std::vector<std::vector<Edge>> parts(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    ShardManifest manifest;
    manifest.shard_id = s;
    manifest.shard_count = shards;
    manifest.routing = routing;
    manifest.router_seed = shard_router_seed(params);
    EdgeFilter own = shard_ownership_filter(manifest);
    for (const Edge& edge : edges) {
      if (own(edge)) parts[s].push_back(edge);
    }
  }
  return parts;
}

void expect_same_sketch(const SubsampleSketch& a, const SubsampleSketch& b,
                        ElemId num_elems) {
  ASSERT_EQ(a.retained_elements(), b.retained_elements());
  ASSERT_EQ(a.stored_edges(), b.stored_edges());
  EXPECT_EQ(a.admission_cutoff(), b.admission_cutoff());
  EXPECT_DOUBLE_EQ(a.p_star(), b.p_star());
  for (ElemId e = 0; e < num_elems; ++e) {
    const auto sa = a.sets_of(e);
    const auto sb = b.sets_of(e);
    ASSERT_EQ(sa.size(), sb.size()) << "elem " << e;
    EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()))
        << "elem " << e;
  }
  // The downstream contract: identical greedy solutions (SetId tie-breaks
  // make the unweighted greedy deterministic across slot numberings).
  const GreedyResult ga = greedy_max_cover(a.view(), a.params().k);
  const GreedyResult gb = greedy_max_cover(b.view(), b.params().k);
  EXPECT_EQ(ga.solution, gb.solution);
  EXPECT_EQ(ga.covered, gb.covered);
}

/// In-memory save/load round trip through the object's own snapshot frame.
template <typename T>
T roundtrip(const T& object) {
  SnapshotWriter writer(T::kSnapshotType);
  object.save(writer);
  SnapshotReader reader(writer.finish());
  EXPECT_EQ(reader.type(), T::kSnapshotType);
  auto loaded = T::load_snapshot(reader);
  EXPECT_TRUE(loaded.has_value()) << reader.error();
  EXPECT_TRUE(reader.at_end());
  return std::move(*loaded);
}

/// Collapses shards with merge_from in a random binary-tree order — every
/// shape and order must agree, because merge is a union.
template <typename Sketch>
Sketch random_tree_merge(std::vector<Sketch> shards, Rng& rng) {
  while (shards.size() > 1) {
    const std::size_t into = rng.next_below(std::uint64_t{shards.size()});
    std::size_t from = rng.next_below(std::uint64_t{shards.size() - 1});
    if (from >= into) ++from;
    shards[into].merge_from(shards[from]);
    shards.erase(shards.begin() + static_cast<std::ptrdiff_t>(from));
  }
  return std::move(shards.front());
}

TEST(MergeEquivalence, HashRoutingAnyShardCountAnyTreeShape) {
  Rng rng(0xfade0001);
  for (int round = 0; round < 12; ++round) {
    const SetId n = 10 + static_cast<SetId>(rng.next_below(std::uint64_t{50}));
    const ElemId m = 100 + rng.next_below(std::uint64_t{2000});
    const std::size_t count = 200 + rng.next_below(std::uint64_t{4000});
    const std::size_t budget =
        n + rng.next_below(std::uint64_t{600});  // saturates most rounds
    const std::uint32_t shards =
        1 + static_cast<std::uint32_t>(rng.next_below(std::uint64_t{7}));
    const SketchParams params = fuzz_params(n, budget, 0x9000 + round);

    const std::vector<Edge> edges = random_stream(rng, n, m, count);
    SubsampleSketch whole(params);
    for (const Edge& edge : edges) whole.update(edge);

    const auto parts =
        partition_edges(edges, shards, ShardRouting::kByElementHash, params);
    std::vector<SubsampleSketch> shard_sketches;
    for (const auto& part : parts) {
      SubsampleSketch sketch(params);
      for (const Edge& edge : part) sketch.update(edge);
      shard_sketches.push_back(std::move(sketch));
    }
    const SubsampleSketch merged =
        random_tree_merge(std::move(shard_sketches), rng);
    expect_same_sketch(merged, whole, m);
  }
}

TEST(MergeEquivalence, HashRoutingExactEvenWhenDegreeCapBinds) {
  Rng rng(0xfade0002);
  // eps/k chosen so the cap is tiny (2-3) and a dense stream trips it.
  SketchParams params = fuzz_params(12, 80, 0xcafe, /*k=*/20, /*eps=*/0.5);
  ASSERT_LE(params.degree_cap(), 3u);
  const std::vector<Edge> edges = random_stream(rng, 12, 60, 3000);

  SubsampleSketch whole(params);
  for (const Edge& edge : edges) whole.update(edge);

  for (const std::uint32_t shards : {2u, 3u, 5u}) {
    const auto parts =
        partition_edges(edges, shards, ShardRouting::kByElementHash, params);
    std::vector<SubsampleSketch> shard_sketches;
    for (const auto& part : parts) {
      SubsampleSketch sketch(params);
      for (const Edge& edge : part) sketch.update(edge);
      shard_sketches.push_back(std::move(sketch));
    }
    const SubsampleSketch merged =
        random_tree_merge(std::move(shard_sketches), rng);
    expect_same_sketch(merged, whole, 60);
  }
}

TEST(MergeEquivalence, RoundRobinExactWhileCapsCannotBind) {
  Rng rng(0xfade0003);
  for (int round = 0; round < 6; ++round) {
    const SetId n = 20 + static_cast<SetId>(rng.next_below(std::uint64_t{30}));
    // k=5, eps=0.2 => cap = ceil(n ln 5) >= n, and a deduped element list
    // never exceeds n sets, so the cap cannot bind.
    const SketchParams params = fuzz_params(n, n + 400, 0x7700 + round);
    ASSERT_GE(params.degree_cap(), n);
    const std::vector<Edge> edges = random_stream(rng, n, 1500, 2500);

    SubsampleSketch whole(params);
    for (const Edge& edge : edges) whole.update(edge);

    const std::uint32_t shards =
        2 + static_cast<std::uint32_t>(rng.next_below(std::uint64_t{4}));
    const auto parts =
        partition_edges(edges, shards, ShardRouting::kRoundRobin, params);
    std::vector<SubsampleSketch> shard_sketches;
    for (const auto& part : parts) {
      SubsampleSketch sketch(params);
      for (const Edge& edge : part) sketch.update(edge);
      shard_sketches.push_back(std::move(sketch));
    }
    const SubsampleSketch merged =
        random_tree_merge(std::move(shard_sketches), rng);
    expect_same_sketch(merged, whole, 1500);
  }
}

TEST(MergeEquivalence, MergeAfterShardSnapshotRoundTrip) {
  Rng rng(0xfade0004);
  const SketchParams params = fuzz_params(30, 300, 0xabcd);
  const std::vector<Edge> edges = random_stream(rng, 30, 800, 2000);

  SubsampleSketch whole(params);
  for (const Edge& edge : edges) whole.update(edge);

  const std::uint32_t shards = 4;
  const auto parts =
      partition_edges(edges, shards, ShardRouting::kByElementHash, params);
  std::vector<ShardSnapshot> shard_files;
  for (std::uint32_t s = 0; s < shards; ++s) {
    SubsampleSketch sketch(params);
    for (const Edge& edge : parts[s]) sketch.update(edge);
    ShardManifest manifest;
    manifest.shard_id = s;
    manifest.shard_count = shards;
    manifest.routing = ShardRouting::kByElementHash;
    manifest.router_seed = shard_router_seed(params);
    manifest.edges_ingested = parts[s].size();
    // The multi-process shuffle: every shard crosses the wire as a 'SHRD'
    // snapshot before the coordinator ever sees it.
    shard_files.push_back(
        roundtrip(ShardSnapshot{manifest, std::move(sketch)}));
  }
  std::string error;
  std::optional<SubsampleSketch> merged =
      merge_shard_set(std::move(shard_files), 2, nullptr, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  expect_same_sketch(*merged, whole, 800);
}

TEST(MergeEquivalence, HierarchicalFanInAndPoolShapeInvariance) {
  Rng rng(0xfade0005);
  const SketchParams params = fuzz_params(40, 500, 0xbeef);
  const std::vector<Edge> edges = random_stream(rng, 40, 1200, 3000);

  SubsampleSketch whole(params);
  for (const Edge& edge : edges) whole.update(edge);

  const std::uint32_t shards = 9;
  const auto parts =
      partition_edges(edges, shards, ShardRouting::kByElementHash, params);
  const auto build_shards = [&] {
    std::vector<SubsampleSketch> out;
    for (const auto& part : parts) {
      SubsampleSketch sketch(params);
      for (const Edge& edge : part) sketch.update(edge);
      out.push_back(std::move(sketch));
    }
    return out;
  };

  ThreadPool pool(3);
  for (const std::size_t fan_in : {2u, 3u, 4u, 9u}) {
    const SubsampleSketch serial =
        hierarchical_merge(build_shards(), fan_in, nullptr);
    const SubsampleSketch pooled =
        hierarchical_merge(build_shards(), fan_in, &pool);
    expect_same_sketch(serial, whole, 1200);
    expect_same_sketch(pooled, whole, 1200);
  }
}

TEST(MergeEquivalence, WeightedShardsEqualSingleStream) {
  Rng rng(0xfade0006);
  for (int round = 0; round < 6; ++round) {
    const SetId n = 15 + static_cast<SetId>(rng.next_below(std::uint64_t{25}));
    const ElemId m = 500;
    const SketchParams params = fuzz_params(n, n + 150, 0x5150 + round);
    std::vector<WeightedEdge> edges;
    for (std::size_t i = 0; i < 2000; ++i) {
      const ElemId elem = rng.next_below(std::uint64_t{m});
      // Weight is a pure function of the element, as the sketch requires.
      edges.push_back({static_cast<SetId>(rng.next_below(std::uint64_t{n})),
                       elem, 0.5 + static_cast<double>(elem % 7) * 0.25});
    }

    WeightedSubsampleSketch whole(params);
    for (const WeightedEdge& edge : edges) whole.update(edge);

    const std::uint32_t shards =
        2 + static_cast<std::uint32_t>(rng.next_below(std::uint64_t{4}));
    const StreamEngine::Router router =
        StreamEngine::by_element_hash(shards, shard_router_seed(params));
    std::vector<WeightedSubsampleSketch> shard_sketches;
    for (std::uint32_t s = 0; s < shards; ++s) {
      shard_sketches.emplace_back(params);
    }
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const Edge key{edges[i].set, edges[i].elem};
      shard_sketches[router(key, i)].update(edges[i]);
    }
    WeightedSubsampleSketch merged =
        random_tree_merge(std::move(shard_sketches), rng);

    ASSERT_EQ(merged.retained_elements(), whole.retained_elements());
    ASSERT_EQ(merged.stored_edges(), whole.stored_edges());
    EXPECT_DOUBLE_EQ(merged.tau_star(), whole.tau_star());
    for (ElemId e = 0; e < m; ++e) {
      ASSERT_EQ(merged.is_retained(e), whole.is_retained(e)) << "elem " << e;
    }
    for (int probe = 0; probe < 8; ++probe) {
      std::vector<SetId> family;
      for (SetId s = 0; s < n; ++s) {
        if (rng.next_bool(0.3)) family.push_back(s);
      }
      EXPECT_DOUBLE_EQ(merged.estimate_weighted_coverage(family),
                       whole.estimate_weighted_coverage(family));
    }
  }
}

TEST(MergeEquivalence, L0BankExactUnderAnyRoutingIncludingRoundTrip) {
  Rng rng(0xfade0008);
  const SetId n = 25;
  const std::vector<Edge> edges = random_stream(rng, n, 700, 2200);

  for (const ShardRouting routing :
       {ShardRouting::kByElementHash, ShardRouting::kRoundRobin}) {
    L0KCover whole(n, 24, 0x10c0de);
    for (const Edge& edge : edges) whole.update(edge);

    const std::uint32_t shards = 4;
    const auto parts =
        partition_edges(edges, shards, routing, fuzz_params(n, 100, 42));
    std::vector<L0KCover> banks;
    for (const auto& part : parts) {
      L0KCover bank(n, 24, 0x10c0de);
      for (const Edge& edge : part) bank.update(edge);
      banks.push_back(roundtrip(bank));
    }
    L0KCover merged = random_tree_merge(std::move(banks), rng);

    // KMV union merge is exact regardless of how the stream was split, so
    // the coordinated sample — and everything computed from it — matches.
    const SketchView va = merged.sample_view();
    const SketchView vb = whole.sample_view();
    ASSERT_EQ(va.num_retained, vb.num_retained);
    EXPECT_EQ(va.set_offsets, vb.set_offsets);
    EXPECT_EQ(va.set_slots, vb.set_slots);
    EXPECT_EQ(merged.solve_greedy(5), whole.solve_greedy(5));
    for (int probe = 0; probe < 8; ++probe) {
      std::vector<SetId> family;
      for (SetId s = 0; s < n; ++s) {
        if (rng.next_bool(0.3)) family.push_back(s);
      }
      EXPECT_DOUBLE_EQ(merged.estimate_coverage(family),
                       whole.estimate_coverage(family));
    }
  }
}

}  // namespace
}  // namespace covstream
